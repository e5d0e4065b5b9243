"""Weight sequences: higher-order Bell numbers, alpha(n) = 1/(n! ell_u(n)),
and the admissibility checks (A1)/(A2).

Bell numbers of order k are the Taylor coefficients n! [r^n] of
exp^k(r)/exp^k(0), computed by formal power-series exponentiation composed
k-1 times.  Order 2 is exact big-integer arithmetic; from order 3 on the
normalization constants exp_j(0) are transcendental, so the same recurrence
runs in high-precision mpmath floats instead (see the module notes in the
repository for the empirical integrality situation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .legendre import log_ell_sequence, log_factorial, seq_equivalent, EquivalenceReport
from .weights import CONSISTENT, VIOLATED, WeightFunction, tail_size

MAX_BELL_N = 512


@dataclass(frozen=True)
class WeightSequence:
    log_values: list[float]
    provenance: str
    exact_values: list | None = field(default=None, compare=False)

    def __len__(self):
        return len(self.log_values)


def _exp_series(coeffs: list, n_max: int, one):
    """Coefficients of exp(A) for a series A with A[0] = 0.

    Uses B' = A' B, i.e. b_n = (1/n) sum_{j=1..n} j a_j b_{n-j}.
    """
    b = [one]
    for n in range(1, n_max + 1):
        s = 0
        for j in range(1, n + 1):
            s += j * coeffs[j] * b[n - j]
        b.append(s / n)
    return b


def bell_numbers(k: int, n_max: int) -> WeightSequence:
    """b_k(0..n_max): Taylor coefficients n! [r^n] of exp^k(r)/exp^k(0)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= n_max <= MAX_BELL_N:
        raise ValueError(f"n_max must be in [0, {MAX_BELL_N}]")
    import mpmath as mp  # only Bell numbers need it, so importing wncalc does not

    if k <= 2:
        # T_1 - 1 has coefficients 1/n!; T_2 = exp(T_1 - 1)
        t = [Fraction(1, math.factorial(n)) for n in range(n_max + 1)]
        for _ in range(k - 1):
            a = [Fraction(0)] + t[1:]
            t = _exp_series(a, n_max, Fraction(1))
        exact = [t[n] * math.factorial(n) for n in range(n_max + 1)]
        with mp.workdps(50):
            logs = [
                float(mp.log(mp.mpf(v.numerator)) - mp.log(mp.mpf(v.denominator)))
                for v in exact
            ]
        return WeightSequence(log_values=logs, provenance=f"bell:{k}", exact_values=exact)

    with mp.workdps(60 + n_max):
        t = [mp.mpf(1) / mp.factorial(n) for n in range(n_max + 1)]
        scale = mp.mpf(1)  # exp_j(0) for the layer being exponentiated
        for _ in range(k - 1):
            a = [mp.mpf(0)] + [scale * c for c in t[1:]]
            t = _exp_series(a, n_max, mp.mpf(1))
            scale = mp.exp(scale)
        vals = [t[n] * mp.factorial(n) for n in range(n_max + 1)]
        logs = [float(mp.log(v)) for v in vals]
        exact = [mp.mpf(v) for v in vals]
    return WeightSequence(log_values=logs, provenance=f"bell:{k}", exact_values=exact)


def alpha_from_u(u: WeightFunction, n_max: int) -> WeightSequence:
    """alpha(n) = (n! ell_u(n))^{-1} in log space."""
    ell = log_ell_sequence(u, n_max).tolist()
    logs = [-log_factorial(n) - l for n, l in enumerate(ell)]
    return WeightSequence(log_values=logs, provenance=f"from_u:{u.name}")


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class A1Report:
    verdict: str
    best_sigma: float | None
    infimum: float | None
    per_sigma: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class A2Report:
    verdict: str
    s_final: float
    threshold: float
    s_values: list[float] = field(default_factory=list, compare=False)


_TAIL_TOL = 1e-9
SIGMA_GRID = [float(s) for s in np.geomspace(1.0, 16.0, 9)]


def check_A1(alpha: WeightSequence) -> A1Report:
    """inf_n alpha(n) sigma^n > 0 for some sigma in SIGMA_GRID, by tail trend.

    A sigma passes when the sequence log alpha(n) + n log sigma is
    nondecreasing on the last third of the range, so the finite infimum is
    credible evidence for the limit condition.
    """
    la = np.asarray(alpha.log_values)
    n = np.arange(len(la))
    k = tail_size(len(la))
    per_sigma = {}
    best = None
    for sigma in SIGMA_GRID:
        m = la + n * math.log(sigma)
        tail_ok = bool(np.all(np.diff(m[-k:]) >= -_TAIL_TOL))
        per_sigma[sigma] = {"inf": float(np.min(m)), "tail_nondecreasing": tail_ok}
        if tail_ok and best is None:
            best = sigma
    if best is None:
        return A1Report(verdict=VIOLATED, best_sigma=None, infimum=None, per_sigma=per_sigma)
    return A1Report(
        verdict=CONSISTENT,
        best_sigma=best,
        infimum=per_sigma[best]["inf"],
        per_sigma=per_sigma,
    )


A2_THRESHOLD = -0.5


def check_A2(alpha: WeightSequence) -> A2Report:
    """(alpha(n)/n!)^{1/n} -> 0, via s(n) = (log alpha(n) - log n!)/n.

    Consistent when s is decreasing on the tail and ends below
    ``A2_THRESHOLD``.
    """
    if len(alpha) < 21:
        raise ValueError("need n_max >= 20")
    la = alpha.log_values
    s = [(la[n] - log_factorial(n)) / n for n in range(1, len(la))]
    k = tail_size(len(s))
    tail = s[-k:]
    decreasing = all(b - a < _TAIL_TOL for a, b in zip(tail, tail[1:]))
    verdict = CONSISTENT if (decreasing and s[-1] < A2_THRESHOLD) else VIOLATED
    return A2Report(verdict=verdict, s_final=s[-1], threshold=A2_THRESHOLD, s_values=s)


@dataclass(frozen=True)
class SandwichReport:
    verdict: str
    first_violation: int | None
    max_slack: float


def stirling_sandwich(beta: float, n_max: int) -> SandwichReport:
    """Check (n!)^-(1+beta) <= (e/n)^((1+beta)n) <= (e 2^(n/2)/n!)^(1+beta) in logs."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    worst = -math.inf
    for n in range(1, n_max + 1):
        lf = log_factorial(n)
        mid = (1.0 + beta) * n * (1.0 - math.log(n))
        lo = -(1.0 + beta) * lf
        hi = (1.0 + beta) * (1.0 + 0.5 * n * math.log(2.0) - lf)
        slack = max(lo - mid, mid - hi)
        worst = max(worst, slack)
        if slack > 0:
            return SandwichReport(verdict=VIOLATED, first_violation=n, max_slack=slack)
    return SandwichReport(verdict=CONSISTENT, first_violation=None, max_slack=worst)


def remark_inclusion_bounds(u: WeightFunction,
                            n_max: int) -> tuple[EquivalenceReport, EquivalenceReport]:
    """Sequence-level consequences of the embedding chain through (L^2).

    Returns (upper, lower): the geometric envelope fit of ell_u(n) n!
    against 1 (embedding of the test space into the beta=0 space) and of
    ell_u(n) (n!)^2 against 1 (containment of the beta=1 space).
    """
    ell = log_ell_sequence(u, n_max).tolist()
    ones = [0.0] * (n_max + 1)
    upper_seq = [l + log_factorial(n) for n, l in enumerate(ell)]
    lower_seq = [l + 2.0 * log_factorial(n) for n, l in enumerate(ell)]
    return seq_equivalent(ones, upper_seq), seq_equivalent(ones, lower_seq)
