"""Legendre transform of growth functions and the dual Legendre function.

``legendre_transform(u, t)`` computes ``inf_{r>0} u(r)/r^t`` and
``dual_function(u, r)`` computes ``sup_{s>0} exp(2 sqrt(rs))/u(s)``, in log
space, at one argument or at each element of a 1-D array; a ``TransformResult``
holds floats for the one and float64 columns for the other.  Both are one
conjugate problem in ``y = log r``, solved for all arguments in one
``optimize.minimize_scalar`` batch: a coarse scan and golden-section
refinement of several brackets, since (log, x^2)-convexity of u does not
guarantee convexity of the objective in y.  A batch evaluates ``log u`` once
on the 65 points of ``optimize.scan_grid`` and builds its whole scan matrix,
one row per argument, from those values; each lockstep step of the refinement
is then one array call of ``log u``, and every value is what one solve per
argument gives.  ``certify`` checks such values by a brute-force minimum of
the same rows on a dense grid (Lucet, 1997).

``dual_weight`` builds u* when it is called: one ``dual_function`` batch on
32 knots per decade of r in [1e-8, 1e8], clipped to be nondecreasing, and a
cubic Hermite interpolant of log log u* in log r on the slopes the envelope
theorem gives, d log u*/d log r = sqrt(r s*) with s* the maximizer the batch
returns, so that transforms of transforms (the dual-sequence relation) stay
tractable.  Slopes outside the Fritsch-Carlson region (SIAM J. Numer. Anal.
17, 1980) are scaled into it, so the interpolant is monotone between the
knots; below the first knot with log u* > 0, u* is linear in r.  The returned
WeightFunction holds only the knots, the cubic coefficients and the points of
that linear part, never u.  The u* kernel finds each interval by
``searchsorted``, so no Python frame runs per radius.

``dual_of(u)`` is the one u* of a weight object: ``dual_weight(u)``, kept on
u once built, so the dual-sequence check and the distribution-side chaos
bounds grade against the same u*.  Likewise ``log_ell_sequence(u, n)`` keeps
the longest log ell_u(0..n) computed so far on u, and every sequence check
and chaos norm reads a prefix of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import optimize
from .weights import (
    CONSISTENT,
    VIOLATED,
    PrecisionError,
    WeightFunction,
    tail_size,
)

_Y_LO = math.log(1e-24)
DUAL_R_LO, DUAL_R_MAX = 1e-8, 1e8  # ends of the materialized u* grid
DUAL_PER_DECADE = 32  # u* knots per decade of r
CERT_POINTS = 2**13  # grid points of a certificate on the solver's range of y = log r
CERT_TOL = 1e-9  # relative round-off slack of a certificate
_BLOCK = 128  # certificate rows built at a time: 4 097 rows of CERT_POINTS at once are 268 MB


class UnboundedError(ArithmeticError):
    """The inf/sup defining the transform is unbounded on the search range."""


@dataclass(frozen=True)
class TransformResult:  # floats and a str at a scalar argument, columns at a 1-D array
    log_value: float | np.ndarray
    arg_r: float | np.ndarray
    status: str | np.ndarray

    def __eq__(self, other):
        # field by field: the generated tuple comparison would ask for the truth
        # value of an element-wise comparison of two columns
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(
            (self.log_value, self.arg_r, self.status),
            (other.log_value, other.arg_r, other.status)))


def _safe_log_eval(u: WeightFunction, r: np.ndarray) -> np.ndarray:
    """log u at the 1-D array r, with an overflow of log u read as +inf: harmless for
    the infimum, and it steers the dual's maximization away from it.  An array that
    overflows is halved down to single elements, so the elements that do not overflow
    still reach the kernel in a few calls, with the bits of one call per element."""
    try:
        return u.log_eval(r)
    except (OverflowError, PrecisionError):
        if len(r) == 1:
            return np.array([math.inf])
        k = len(r) // 2
        return np.concatenate((_safe_log_eval(u, r[:k]), _safe_log_eval(u, r[k:])))


def _log_u(u: WeightFunction, y: np.ndarray) -> np.ndarray:
    """log u(e^y)."""
    return _safe_log_eval(u, np.exp(y))


def _objective(p: np.ndarray, y: np.ndarray, logs: np.ndarray, dual: bool) -> np.ndarray:
    """The minimized objective of argument p at y, from logs = log u(e^y), broadcast."""
    return -(2.0 * np.sqrt(p) * np.exp(0.5 * y) - logs) if dual else logs - p * y


def _conjugate(u: WeightFunction, args, dual: bool) -> TransformResult:
    """Minimize log u(e^y) - t y over y for each t, or, with ``dual``, minus the max
    of 2 sqrt(r) e^{y/2} - log u(e^y) for each r, in one batch.  The first failing
    argument raises, as a loop would; a scalar gives float fields."""
    ps = np.array(args, dtype=float, ndmin=1)
    if (ps < 0).any():
        raise ValueError(f"{'r' if dual else 't'} must be >= 0")
    y_hi = math.log(u.r_max)
    ys = optimize.scan_grid(_Y_LO, y_hi)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is NaN, as in Python floats
        scan = _objective(ps[:, None], ys, _log_u(u, ys), dual)
        res = optimize.minimize_scalar(lambda ks, y: _objective(ps[ks], y, _log_u(u, y), dual),
                                       _Y_LO, y_hi, scan)
    no_finite = res.status == optimize.STATUS_NO_FINITE
    failed = no_finite | ((res.status == optimize.STATUS_UPPER_BOUNDARY) & (ps > 0))
    if failed.any():
        k = int(np.argmax(failed))
        if no_finite[k]:
            raise ValueError(f"no finite objective value found on [{_Y_LO}, {y_hi}]")
        a = float(ps[k])
        raise UnboundedError((
            f"sup of exp(2 sqrt({a} s))/{u.name}(s) still increasing at r_max={u.r_max}:"
            " the maximizer lies beyond the search limit r_max,"
            " or u fails the C_+,1/2 growth condition"
        ) if dual else f"inf of {u.name}(r)/r^{a} still decreasing at r_max={u.r_max}")
    out = (-res.value if dual else res.value, np.exp(res.x), res.status)
    return TransformResult(*(out if np.ndim(args) else (col[0].item() for col in out)))


def legendre_transform(u: WeightFunction, t) -> TransformResult:
    """log of inf_{r>0} u(r)/r^t, with the minimizer r*; columns for a 1-D array t."""
    return _conjugate(u, t, dual=False)


def dual_function(u: WeightFunction, r) -> TransformResult:
    """log of sup_{s>0} exp(2 sqrt(rs))/u(s), with the maximizer s*; columns for a 1-D array r."""
    return _conjugate(u, r, dual=True)


# ---------------------------------------------------------------------------
# materialized dual weight


def _dual_log_eval(knots: np.ndarray, coeffs: np.ndarray, below: np.ndarray,
                   r: np.ndarray) -> np.ndarray:
    """log u*(r): exp of the cubic in s = log r - x_i on the knot interval [x_i, x_{i+1}]
    holding log r, and below the first knot linear in r between the points of the
    rows below = (r, log u*), which run from r = 0 to the first knot's radius."""
    x = np.log(r)
    # the interval [x_i, x_{i+1}) holding log r; r_max, the last knot, closes the last one
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    s = np.maximum(x - knots[i], 0.0)  # 0 below the grid, where the cubic is not used
    c0, c1, c2, c3 = coeffs[:, i]
    out = np.exp(c3 + s * (c2 + s * (c1 + s * c0)))
    lo = x < knots[0]
    if lo.any():
        rp, vp = below
        r_lo = r[lo]
        j = np.clip(np.searchsorted(rp, r_lo, side="right") - 1, 0, len(rp) - 2)
        out[lo] = vp[j] + (vp[j + 1] - vp[j]) * ((r_lo - rp[j]) / (rp[j + 1] - rp[j]))
    return out


def dual_weight(u: WeightFunction) -> WeightFunction:
    """u* by cubic Hermite interpolation through one dual_function batch on the knots
    x = log r, DUAL_PER_DECADE of them per decade of [DUAL_R_LO, DUAL_R_MAX].

    The interpolated function is g = log log u*, with the exact slope
    dg/dx = sqrt(r s*) / log u* at each knot: the envelope theorem gives
    d log u*/d log r = sqrt(r s*) for the maximizer s*, which the batch returns.
    g needs log u* > 0, so the cubic starts at the first knot where it is; below
    that knot u* is linear in r through the knot values, down to u*(0) = 1/u(0).
    A knot value or maximizer that is not finite raises ValueError, as does
    log u* > 0 at fewer than two knots.
    """
    n = int(round(DUAL_PER_DECADE * math.log10(DUAL_R_MAX / DUAL_R_LO))) + 1
    x = np.linspace(math.log(DUAL_R_LO), math.log(DUAL_R_MAX), n)
    rs = np.exp(x)
    res = dual_function(u, rs)
    finite = np.isfinite(res.log_value) & np.isfinite(res.arg_r)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"log u* of {u.name} at r={float(rs[k])} is {float(res.log_value[k])}"
                         f" with maximizer s*={float(res.arg_r[k])}, not finite")
    # u* is nondecreasing from u*(0) = 1/u(0): clip optimizer jitter, and values below
    # u*(0), which the solver's lower end s >= e^_Y_LO can give at the smallest r
    log_at_zero = -math.log(u.u_at_zero)
    vals = np.maximum.accumulate(np.concatenate(([log_at_zero], res.log_value)))[1:]
    first = int(np.argmax(vals > 0))  # the first knot of the cubic
    if not vals[-2] > 0:
        raise ValueError(f"log u* of {u.name} is > 0 at fewer than two knots in"
                         f" [{float(rs[0])}, {float(rs[-1])}]")
    g = np.log(vals[first:])
    d = np.sqrt(rs[first:] * res.arg_r[first:]) / vals[first:]
    h = np.diff(x[first:])
    m = np.diff(g) / h
    # Fritsch and Carlson (SIAM J. Numer. Anal. 17, 1980): with secant m >= 0, slopes
    # alpha m and beta m with alpha, beta >= 0 and alpha^2 + beta^2 <= 9 keep the cubic
    # monotone.  The exact slopes meet that where u* is smooth on the knot scale; at a
    # kink (a tabulated u) or a flat clipped interval both are scaled onto the circle,
    # and a smaller slope keeps the interval on its other side inside it
    scale = np.minimum(1.0, 3.0 * m / np.hypot(d[:-1], d[1:]))
    d = d * np.minimum(np.append(scale, 1.0), np.insert(scale, 0, 1.0))
    d0, d1 = d[:-1], d[1:]
    t = (d0 + d1 - 2.0 * m) / h
    coeffs = np.stack((t / h, (m - d0) / h - t, d0, g[:-1]))
    # the linear part ends at the cubic's value at its first knot, exp(g[0]), bit for bit
    below = np.array([[0.0, *rs[:first + 1]], [log_at_zero, *vals[:first], *np.exp(g[:1])]])
    return WeightFunction(
        name=f"dual({u.name})",
        _log_eval=functools.partial(_dual_log_eval, x[first:], coeffs, below),
        r_max=DUAL_R_MAX,
        params={"dual_of": u.name, **{f"base_{k}": v for k, v in u.params.items()}},
        u_at_zero=1.0 / u.u_at_zero,
    )


def dual_of(u: WeightFunction) -> WeightFunction:
    """The u* of this weight object, ``dual_weight(u)`` built once and kept on u."""
    ustar = u._memo.get("dual")
    if ustar is None:
        ustar = u._memo["dual"] = dual_weight(u)
    return ustar


def log_ell_sequence(u: WeightFunction, n_max: int) -> np.ndarray:
    """log ell_u(n) for n <= n_max: a prefix of the longest sequence kept on u."""
    seq = u._memo.get("log_ell", np.empty(0))
    if len(seq) <= n_max:
        more = legendre_transform(u, np.arange(len(seq), n_max + 1, dtype=float))
        seq = u._memo["log_ell"] = np.concatenate((seq, more.log_value))
    return seq[: n_max + 1]


# ---------------------------------------------------------------------------
# certificates


def certify(u: WeightFunction, args, values, dual: bool = False) -> np.ndarray:
    """One bool per argument: True when no point of CERT_POINTS values of y = log r
    on the solver's range lies below the infimum log ell_u(t) = value (with ``dual``,
    above the supremum log u*(r) = value) by more than CERT_TOL relative.  One-sided:
    it catches a missed optimum, not an error below the grid's resolution."""
    ys = np.linspace(_Y_LO, math.log(u.r_max), CERT_POINTS)
    ps, logs = np.array(args, dtype=float, ndmin=1), _log_u(u, ys)
    lows = np.empty(len(ps))
    for k in range(0, len(ps), _BLOCK):
        lows[k:k + _BLOCK] = _objective(ps[k:k + _BLOCK, None], ys, logs, dual).min(axis=1)
    best = np.array(values, dtype=float, ndmin=1) * (-1.0 if dual else 1.0)
    return lows >= best - CERT_TOL * (1.0 + np.abs(best))


# ---------------------------------------------------------------------------
# sequence equivalence


def log_factorial(n: int) -> float:
    """Exact big-integer factorial below 64, log-gamma above."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 64:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1.0)


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str
    K1: float
    K2: float
    c1: float
    c2: float
    max_residual: float
    n_range: tuple[int, int]
    rho: list[float] = field(default_factory=list, compare=False)


DRIFT_TOL = 0.5


def seq_equivalent(log_a: Sequence[float], log_b: Sequence[float]) -> EquivalenceReport:
    """Fit K1 c1^n a(n) <= b(n) <= K2 c2^n a(n) on the given range.

    The geometric rate c is the least-squares slope of the residual on the
    tail third (the finite-range estimate of the asymptotic rate); K1/K2
    are the residual extremes, so the reported constants satisfy the
    inequalities literally on the range.  The verdict is `violated` when
    the local slope drifts between the head and the tail by more than
    ``DRIFT_TOL``, the finite-range signature of a super-geometric ratio.
    """
    la = np.asarray(log_a, dtype=float)
    lb = np.asarray(log_b, dtype=float)
    if la.shape != lb.shape or la.ndim != 1 or len(la) < 6:
        raise ValueError("need two equal-length sequences of at least 6 values")
    if not (np.all(np.isfinite(la)) and np.all(np.isfinite(lb))):
        raise ValueError("sequence values must be positive and finite")
    n = np.arange(len(la), dtype=float)
    rho = lb - la

    k = tail_size(len(rho))
    slope_tail = np.polyfit(n[-k:], rho[-k:], 1)[0]
    slope_head = np.polyfit(n[:k], rho[:k], 1)[0]
    drift = abs(slope_tail - slope_head)

    resid = rho - slope_tail * n
    log_K2 = float(np.max(resid))
    log_K1 = float(np.min(resid))
    return EquivalenceReport(
        verdict=CONSISTENT if drift <= DRIFT_TOL else VIOLATED,
        K1=math.exp(log_K1),
        K2=math.exp(log_K2),
        c1=math.exp(slope_tail),
        c2=math.exp(slope_tail),
        max_residual=float(np.max(np.abs(resid))),
        n_range=(0, len(rho) - 1),
        rho=rho.tolist(),
    )


def verify_dual_sequence(u: WeightFunction, n_max: int) -> EquivalenceReport:
    """Check ell_{u*}(n) ell_u(n) (n!)^2 ~ 1 on n <= n_max, with u* = dual_of(u)."""
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    # u* first: a weight outside C_+,1/2 fails in the u* build, and that error names the cause
    ell_star = log_ell_sequence(dual_of(u), n_max).tolist()
    ell = log_ell_sequence(u, n_max).tolist()
    rho = [(l_u + l_us) + 2.0 * log_factorial(n)
           for n, (l_u, l_us) in enumerate(zip(ell, ell_star))]
    return seq_equivalent([0.0] * len(rho), rho)
