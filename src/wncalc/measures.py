"""Measures at desk scale: Mittag-Leffler evaluation, grey and Poisson
characteristic functionals, positive-definiteness Gram tests, and Monte
Carlo integrability diagnostics.  A characteristic functional takes a
(k, d) array of arguments and returns k values, so a Gram matrix is one
call on its m^2 differences, and a grey one is one Mittag-Leffler call on
the array of distinct |xi|^2.  E_lambda(-t) is the trapezoid rule in log s
on the Gorenflo-Loutchko-Luchko integral for every t > 0 and 0 < lambda < 1.

The grey-noise sampler uses the Gaussian scale-mixture representation
x = sqrt(2) S^(-lambda/2) z with S a one-sided stable variable (Kanter's
construction).  The representation is never trusted blindly: no Monte Carlo
verdict on a grey model is returned unless its own draws pass an empirical
characteristic-function test against the Mittag-Leffler functional.

Divergence of an integral is a graded verdict from batch-mean stability,
never an exception: Monte Carlo cannot prove finiteness, it grades
evidence.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .chaos import _BLOCK_BYTES, oscillator_eigenvalues, point_eval
from .weights import WeightFunction, CONSISTENT, VIOLATED

KIND_GAUSSIAN = "gaussian"
KIND_GREY = "grey"
KIND_POISSON = "poisson"

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGING = "diverging"
VERDICT_INCONCLUSIVE = "inconclusive"

ML_T_MAX = 50.0  # largest t mittag_leffler accepts
N_PROBES = 8  # characteristic-function probes of validate_sampler
SIGMA_GATE = 4.0  # family-wise false-alarm level of validate_sampler, as a two-sided sigma
# Sidak's per-score level, so that the largest of 2 N_PROBES |z| scores errs at SIGMA_GATE
_Z_ALPHA = -math.expm1(math.log1p(-math.erfc(SIGMA_GATE / math.sqrt(2.0))) / (2 * N_PROBES))
Z_GATE = -NormalDist().inv_cdf(_Z_ALPHA / 2.0)  # 4.61 standard errors
N_BATCHES = 8  # Monte Carlo batches of the integrability and moment checks


class SamplerValidationError(RuntimeError):
    """Empirical characteristic function deviates beyond the gate."""


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the negative axis


_ML_V_LO = math.log(1e-17)  # left end of the trapezoid in v = log s
_ML_MAX_NODES = 10**8  # per t; the trapezoid's node count grows like 1/lam


def _ml_trapezoid(lam: float, t: float) -> float:
    """E_lam(-t) for 0 < lam < 1 by the trapezoid rule in v = log s on the s-form
    (Gorenflo, Loutchko and Luchko, Fract. Calc. Appl. Anal. 5, 2002)

        sin(pi lam)/(pi lam) int e^v g(v) / ((e^v + cos pi lam)^2 + sin^2 pi lam) dv,

    with g(v) = exp(-(t e^v)^(1/lam)).  g is analytic and decays in the strip
    |Im v| < pi lam / 2, and the integrand has poles at v = +-i eps,
    eps = pi (1 - lam), so the step h = 2 pi (0.9 d) / log 1e16 with
    d = min(eps, pi lam / 2) leaves a discretization error near 1e-16.  The
    nodes are h (k + 1/2), from log 1e-17 up to where (t e^v)^(1/lam) = 45,
    but not past log 1e17: the integrand is below 1e-17 there, and for a tiny
    t the first end would overflow e^v.

    For lam > 3/4 the pole parts are taken out instead, so that the step
    does not shrink like 1 - lam: the real function
    Im[g(i eps) / sinh(v - i eps)] / (pi lam) has the same poles, decays like
    e^-|v|, and integrates to Re g(i eps) / lam over the real line; d is then
    pi lam / 2, and the nodes run on to v = log 1e17, past the decay of that
    function.  (Nearer 2/3, where |g(i eps)| -> 1, the subtracted terms would
    cancel to 1e-14.)  The node count grows like 1/lam as lam -> 0, so they
    are summed in blocks of ``_BLOCK_BYTES``.
    """
    if lam <= 0.5:
        sin, cos = math.sin(math.pi * lam), math.cos(math.pi * lam)
    else:  # 1 - lam is exact here, and keeps sin(pi lam) accurate as lam -> 1
        sin, cos = math.sin(math.pi * (1.0 - lam)), -math.cos(math.pi * (1.0 - lam))
    logt = math.log(t)
    poles = lam > 0.75
    # 2 pi (0.9 d) / log 1e16, with d = pi lam / 2 or d = eps
    h = 0.9 * math.pi**2 * (lam if poles else min(lam, 2.0 * (1.0 - lam))) / math.log(1e16)
    v_hi = -_ML_V_LO if poles else min(lam * math.log(45.0) - logt, -_ML_V_LO)
    if poles:  # g(i eps), with |g(i eps)| <= 1 because eps / lam < pi / 2
        g = cmath.exp(-math.exp(logt / lam) * cmath.exp(1j * math.pi * (1.0 - lam) / lam))
    k_hi = math.floor(v_hi / h - 0.5)
    step = _BLOCK_BYTES // 8
    total = 0.0
    for lo in range(math.ceil(_ML_V_LO / h - 0.5), k_hi + 1, step):
        v = h * (np.arange(lo, min(lo + step, k_hi + 1), dtype=float) + 0.5)
        s = np.exp(v)
        f = sin * s * np.exp(-np.exp((v + logt) / lam)) / ((s + cos) ** 2 + sin * sin)
        if poles:
            sinh = np.sinh(v)
            f -= (-cos * g.imag * sinh + sin * g.real * np.cosh(v)) / (sinh * sinh + sin * sin)
        total += float(np.sum(f))
    return (g.real / lam if poles else 0.0) + h * total / (math.pi * lam)


def mittag_leffler(lam: float, t):
    """L_lam(t) = E_lam(-t) = sum (-t)^n / Gamma(1 + lam n), for 0 < lam <= 1, t >= 0.

    ``t`` is a float, giving a float, or a 1-D array, giving a float64 array
    of the same length; each t is evaluated on its own, so an array gives the
    bits of one call per element.  lam = 1 is exp(-t) and t = 0 is 1; every
    other t takes the trapezoid rule in log s of ``_ml_trapezoid``, to about
    1e-15 relative (tests/test_mittag_leffler_oracle.py holds the 40-digit
    references).  A lam below about 3.2e-6, where a t could take more than
    ``_ML_MAX_NODES`` nodes, is refused with a ValueError.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must be in (0, 1]")
    # nodes over the widest span, -2 _ML_V_LO, at the step 0.9 pi^2 lam / log 1e16
    if -2.0 * _ML_V_LO * math.log(1e16) / (0.9 * math.pi**2 * lam) > _ML_MAX_NODES:
        raise ValueError(f"lambda={lam!r} would take more than {_ML_MAX_NODES:.0e} Mittag-Leffler"
                         " nodes per t; the lambda -> 0 step of ROADMAP item 8 is open")
    arr = np.asarray(t, dtype=float)
    if arr.ndim > 1:
        raise ValueError("t must be a float or a 1-D array")
    if not np.all(arr >= 0):  # NaN fails this too
        raise ValueError("t must be >= 0")
    over = arr[arr > ML_T_MAX]
    if over.size:
        raise ValueError(f"t={over[0]} beyond configured range {ML_T_MAX}")
    out = []
    for s in arr.reshape(-1).tolist():
        if s == 0.0:
            out.append(1.0)
        elif lam == 1.0:
            out.append(math.exp(-s))
        else:
            out.append(_ml_trapezoid(lam, s))
    if arr.ndim == 0:
        return out[0]
    return np.array(out)


def poisson_char(xi, intensity: float):
    """exp(sum_j Delta (e^{i xi_j} - 1)) at each row of xi: d Poisson(Delta) modes."""
    if not 0.0 < intensity < math.inf:
        raise ValueError("Poisson intensity must be in (0, inf)")
    xi = np.asarray(xi, dtype=float)
    return np.exp(intensity * np.sum(np.exp(1j * xi) - 1.0, axis=-1))


# ---------------------------------------------------------------------------
# positive definiteness


@dataclass(frozen=True)
class PositiveDefiniteReport:
    verdict: str
    min_eigenvalue: float
    n_points: int
    tol: float


def check_positive_definite(char_fn, points, tol: float = 1e-8) -> PositiveDefiniteReport:
    """Gram test: G_jk = C(xi_j - xi_k) must be positive semidefinite.  ``char_fn``
    maps a (k, d) array of xi to the k values C(xi); one call takes all m^2 differences."""
    if not math.isfinite(tol):  # a negative tol is a stricter test, NaN no test at all
        raise ValueError(f"tol must be finite, got {tol!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(m * m, -1)
    G = np.asarray(char_fn(diffs), dtype=complex).reshape(m, m)
    if not np.allclose(G, G.conj().T, rtol=0, atol=1e-10):
        raise ValueError("Gram matrix is not Hermitian: characteristic function bug")
    min_eig = float(np.linalg.eigvalsh(G).min())
    verdict = CONSISTENT if min_eig >= -tol else VIOLATED
    return PositiveDefiniteReport(verdict=verdict, min_eigenvalue=min_eig,
                                  n_points=m, tol=tol)


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class MeasureModel:
    kind: str
    d: int
    lam: float = 1.0          # grey-noise parameter
    intensity: float = 1.0    # Poisson intensity per mode
    sampler_seed: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_GAUSSIAN, KIND_GREY, KIND_POISSON):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == KIND_GREY and not 0.0 < self.lam <= 1.0:
            raise ValueError("grey lambda must be in (0, 1]")
        if self.kind == KIND_POISSON and not 0.0 < self.intensity < math.inf:
            raise ValueError("Poisson intensity must be in (0, inf)")
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def char_fn(self, xi) -> np.ndarray:
        """C(xi) at each row of the (k, d) array xi; grey: one L_lam call on all distinct |xi|^2."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == KIND_POISSON:
            return poisson_char(xi, self.intensity)
        t = np.sum(xi * xi, axis=1)
        if self.kind == KIND_GAUSSIAN:
            return np.exp(-0.5 * t)
        ts, at = np.unique(t, return_inverse=True)
        return mittag_leffler(self.lam, ts)[at]


def _stable_one_sided(lam: float, size: int, rng) -> np.ndarray:
    """One-sided stable draws with Laplace transform exp(-u^lam) (Kanter)."""
    U = rng.uniform(0.0, math.pi, size)
    E = rng.exponential(1.0, size)
    # from lam ~ 0.984 the sine powers under- or overflow near U = 0 and
    # U = pi, so a is 0, inf or 0/0; S is redone in log space on those rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = (
            np.sin((1.0 - lam) * U)
            * np.sin(lam * U) ** (lam / (1.0 - lam))
            / np.sin(U) ** (1.0 / (1.0 - lam))
        )
        S = (a / E) ** ((1.0 - lam) / lam)
        bad = ~((S > 0.0) & (S < math.inf))
        U, E = U[bad], E[bad]
        log_a = (np.log(np.sin((1.0 - lam) * U)) + (lam / (1.0 - lam)) * np.log(np.sin(lam * U))
                 - np.log(np.sin(U)) / (1.0 - lam))
        S[bad] = np.exp((1.0 - lam) / lam * (log_a - np.log(E)))
    return S


def sample(model: MeasureModel, n: int, rng=None) -> np.ndarray:
    """n draws from the model as an (n, d) array; deterministic given seed."""
    if rng is None:
        rng = np.random.default_rng(model.sampler_seed)
    if model.kind == KIND_GAUSSIAN:
        return rng.standard_normal((n, model.d))
    if model.kind == KIND_POISSON:
        return rng.poisson(model.intensity, (n, model.d)).astype(float)
    z = rng.standard_normal((n, model.d))
    if model.lam == 1.0:
        return math.sqrt(2.0) * z
    S = _stable_one_sided(model.lam, n, rng)
    # at a tiny lam S underflows to 0 and its power is inf: validate_sampler
    # refuses such draws with one message, so numpy does not warn as well
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return math.sqrt(2.0) * S[:, None] ** (-model.lam / 2.0) * z


def _probes(model: MeasureModel) -> np.ndarray:
    """The ``N_PROBES`` characteristic-function probes, drawn from sampler_seed + 1."""
    rng = np.random.default_rng(model.sampler_seed + 1)
    return rng.standard_normal((N_PROBES, model.d)) / math.sqrt(model.d)


def _ecf_sums(x: np.ndarray, probes: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of rows of x that are not finite and, when there is none, the
    sums of cos w, cos^2 w, sin w and sin^2 w over w = x @ probes.T, one
    column per probe (zeros otherwise: the gate refuses those draws anyway)."""
    with np.errstate(invalid="ignore", over="ignore"):
        w = x @ probes.T
    # a draw with a NaN or inf entry projects to a non-finite w; its NaN
    # z-score would drop out of the max and pass the gate silently
    bad = int(np.count_nonzero(~np.isfinite(w).all(axis=1)))
    if bad:  # and cos(inf) would warn
        return bad, np.zeros((4, len(probes)))
    c, s = np.cos(w), np.sin(w)
    return 0, np.array([c.sum(axis=0), (c * c).sum(axis=0), s.sum(axis=0), (s * s).sum(axis=0)])


def validate_sampler(model: MeasureModel, n: int = 100_000, *, sums=None) -> dict:
    """Empirical characteristic function vs the analytic functional.

    ``sums`` are the ``_ecf_sums`` of n draws already made, added batch by
    batch: ``_run_batches`` grades the draws of its estimate this way.
    Without them n draws come from the model's own stream.  Each of
    ``N_PROBES`` probes gives a real and an imaginary z-score.  Raises
    SamplerValidationError when any draw is not finite, or when the largest
    |z| exceeds ``Z_GATE``; a correct sampler then fails with the 6.3e-5 of
    one ``SIGMA_GATE`` test, not the 1.0e-3 of 16 such tests.
    """
    probes = _probes(model)
    bad, (s_c, s_cc, s_s, s_ss) = _ecf_sums(sample(model, n), probes) if sums is None else sums
    if bad:
        raise SamplerValidationError(f"{model.kind} sampler: {bad} of {n} draws are not finite")
    exact = model.char_fn(probes)
    z = 0.0
    for s1, s2, value in ((s_c, s_cc, np.real(exact)), (s_s, s_ss, np.imag(exact))):
        mean = s1 / n
        se = np.maximum(np.sqrt(np.maximum(s2 / n - mean * mean, 0.0) / n), 1e-300)
        z = np.maximum(z, np.abs(mean - value) / se)
    worst = float(np.max(z))
    if worst > Z_GATE:
        raise SamplerValidationError(
            f"{model.kind} sampler: worst deviation {worst:.2f} sigma > {Z_GATE:.2f}"
        )
    return {"worst_sigma": worst}


# ---------------------------------------------------------------------------
# integrability diagnostics


@dataclass(frozen=True)
class IntegrabilityReport:
    verdict: str
    estimate: float
    std_error: float
    cv: float
    p: float
    batch_means: list[float] = field(default_factory=list, compare=False)


CV_CONVERGED = 0.05
CV_DIVERGING = 0.50


def _batch_verdict(batch_means: np.ndarray) -> tuple[str, float]:
    mean = float(np.mean(batch_means))
    cv = float(np.std(batch_means) / mean) if mean > 0 else math.inf
    growing = bool(np.all(np.diff(batch_means) > 0))
    if cv < CV_CONVERGED:
        return VERDICT_CONVERGED, cv
    if cv > CV_DIVERGING or growing:
        return VERDICT_DIVERGING, cv
    return VERDICT_INCONCLUSIVE, cv


def _run_batches(model: MeasureModel, n: int, stat, threads: int = 1) -> list:
    """stat(draws) per batch.  A grey model's batches are also reduced to their
    ``_ecf_sums``, and validate_sampler grades their batch-order total before any
    result is returned; a batch with a draw that is not finite never reaches stat.
    A sigma-gate failure, which a correct sampler gives on 6.3e-5 of seeds, refuses
    only when as many draws from one more child of the seed, after the N_BATCHES of
    spawn(N_BATCHES), fail too."""
    if n < N_BATCHES:
        raise ValueError(f"need at least N_BATCHES={N_BATCHES} samples, one per batch, got {n}")
    batch = n // N_BATCHES
    *seeds, retest = np.random.SeedSequence(model.sampler_seed).spawn(N_BATCHES + 1)
    probes = _probes(model) if model.kind == KIND_GREY else None

    def worker(seed_seq):
        x = sample(model, batch, np.random.default_rng(seed_seq))
        if probes is None:
            return None, stat(x)
        sums = _ecf_sums(x, probes)
        return sums, None if sums[0] else stat(x)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            done = list(ex.map(worker, seeds))
    else:
        done = [worker(s) for s in seeds]
    if probes is not None:
        def grade(sums):  # validate_sampler on the batch-order total of per-batch sums
            validate_sampler(model, N_BATCHES * batch,
                             sums=(sum(s[0] for s in sums), sum(s[1] for s in sums)))
        first = [s for s, _ in done]
        try:
            grade(first)
        except SamplerValidationError:
            if any(bad for bad, _ in first):
                raise
            rng = np.random.default_rng(retest)  # batch by batch, as the first set's draws
            grade([_ecf_sums(sample(model, batch, rng), probes) for _ in range(N_BATCHES)])
    return [r for _, r in done]


def integrability_check(
    model: MeasureModel,
    u: WeightFunction,
    p: float,
    n: int,
    threads: int = 1,
) -> IntegrabilityReport:
    """Monte Carlo E_nu[u(|x|^2_{-p})^{1/2}] with ``N_BATCHES`` batch-mean diagnostics.

    |x|_{-p} uses the eigenvalues 2j+2, j < d.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    w = oscillator_eigenvalues(model.d) ** (-2.0 * p)

    def stat(x):
        r = (x**2) @ w
        # overflow in a single sample is decisive evidence of divergence
        vals = 0.5 * u.log_eval(np.minimum(r, u.r_max))
        with np.errstate(over="ignore"):
            f = np.exp(vals)
        return float(np.mean(np.minimum(f, 1e300)))

    means = np.array(_run_batches(model, n, stat, threads))
    verdict, cv = _batch_verdict(means)
    return IntegrabilityReport(
        verdict=verdict,
        estimate=float(np.mean(means)),
        std_error=float(np.std(means) / math.sqrt(N_BATCHES)),
        cv=cv,
        p=p,
        batch_means=means.tolist(),
    )


@dataclass(frozen=True)
class MomentReport:
    s: float
    verdict: str
    estimate: float
    cv: float
    batch_means: list[float] = field(default_factory=list, compare=False)


def ls_inclusion_check(
    model: MeasureModel,
    phi,
    s_list,
    n: int,
    threads: int = 1,
) -> list[MomentReport]:
    """Monte Carlo E_nu[|phi(x)|^s] for each s, graded over ``N_BATCHES`` batches.

    phi must be pointwise evaluable (a chaos vector).
    """
    def stat(x):
        v = np.abs(point_eval(phi, x))
        return [float(np.mean(v**s)) for s in s_list]

    rows = np.array(_run_batches(model, n, stat, threads))
    out = []
    for s, means in zip(s_list, rows.T):
        verdict, cv = _batch_verdict(means)
        out.append(MomentReport(s=float(s), verdict=verdict,
                                estimate=float(np.mean(means)), cv=cv,
                                batch_means=means.tolist()))
    return out
