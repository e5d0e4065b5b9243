"""Frozen scalar solver: the lockstep order the batch solver must reproduce bit for bit.

``golden_section`` and ``minimize_scalar`` are the one-objective-at-a-time
optimizer that ``wncalc.optimize`` had before its batch minimizer, kept
verbatim (a ``scan_values`` row is optional here, and the scan grid is
written out rather than taken from ``optimize.scan_grid``).
``legendre_transform`` and ``dual_function`` are the scalar transforms that
called it, one solve per argument, each scanning its own objective; a loop
over them is the element-by-element path whose results and first error a
batch has to reproduce, and whose evaluation counts, less the ``COARSE``
scan evaluations of each solve, its refinement has to reproduce.  Nothing
here reads a scan that ``wncalc.legendre`` computed.  The arithmetic is the
batch's, one number at a time: ``log u`` goes through
``legendre._safe_log_eval`` one radius at a time, as a one-element array,
and exp through ``np.exp`` of a one-element array, whose element has the
bits it has in any array.  So what a mismatch shows is a solve that took
other steps; whether a kernel agrees with libm is checked once, against the
frozen kernels of ``scalar_kernels``, in ``test_weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wncalc import legendre
from wncalc.optimize import (
    COARSE,
    MAX_ITER,
    MULTI_START,
    STATUS_LOWER_BOUNDARY,
    STATUS_OK,
    STATUS_UPPER_BOUNDARY,
    TOL,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScalarMinResult:
    x: float
    value: float
    status: str
    evaluations: int


def golden_section(f, a: float, b: float):
    """Minimize f on [a, b]. Returns (x, f(x), evaluation count)."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    for _ in range(MAX_ITER):
        if b - a <= TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    x = 0.5 * (a + b)
    return x, f(x), evals + 1


def minimize_scalar(f, lo: float, hi: float, scan_values=None) -> ScalarMinResult:
    """Global-ish minimum of f on [lo, hi]: scan, up to MULTI_START brackets, golden sections."""
    step = (hi - lo) / (COARSE - 1)
    xs = [lo + i * step for i in range(COARSE)]
    if scan_values is None:
        vals = [f(x) for x in xs]
        evals = COARSE
    else:
        if len(scan_values) != COARSE:
            raise ValueError(f"need {COARSE} scan values, got {len(scan_values)}")
        vals = scan_values
        evals = 0

    # local minima of the scan (including endpoints)
    candidates = []
    for i in range(COARSE):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i < COARSE - 1 else math.inf
        if vals[i] <= left and vals[i] <= right and math.isfinite(vals[i]):
            candidates.append(i)
    if not candidates:
        i = min(range(COARSE), key=lambda k: vals[k])
        candidates = [i]
    candidates.sort(key=lambda k: vals[k])
    candidates = candidates[:MULTI_START]

    best_x, best_v = None, math.inf
    for i in candidates:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, COARSE - 1)]
        if b <= a:
            x, v = xs[i], vals[i]
        else:
            x, v, n = golden_section(f, a, b)
            evals += n
        if v < best_v:
            best_x, best_v = x, v
    if best_x is None:
        raise ValueError(f"no finite objective value found on [{lo}, {hi}]")

    status = STATUS_OK
    edge = 2.0 * step
    if best_x - lo < edge and vals[0] <= vals[1]:
        status = STATUS_LOWER_BOUNDARY
    elif hi - best_x < edge and vals[-1] <= vals[-2]:
        status = STATUS_UPPER_BOUNDARY
    return ScalarMinResult(x=best_x, value=best_v, status=status, evaluations=evals)


def _exp(y: float) -> float:
    """e^y as the batch computes it: np.exp of a one-element array."""
    return np.exp(np.array([y])).item()


def _scalar_log_u(u):
    """log u at one radius, as a one-element array through ``legendre._safe_log_eval``:
    log_eval's clamp to r_max, and an overflow read as +inf."""
    return lambda r: legendre._safe_log_eval(u, np.array([r])).item()


def legendre_transform(u, t: float):
    """(TransformResult, evaluations) of one scalar Legendre solve."""
    if t < 0:
        raise ValueError("t must be >= 0")
    y_hi = math.log(u.r_max)
    log_u = _scalar_log_u(u)

    def g(y: float) -> float:
        return log_u(_exp(y)) - t * y

    res = minimize_scalar(g, legendre._Y_LO, y_hi)
    if res.status == STATUS_UPPER_BOUNDARY and t > 0:
        raise legendre.UnboundedError(
            f"inf of {u.name}(r)/r^{t} still decreasing at r_max={u.r_max}"
        )
    out = legendre.TransformResult(log_value=res.value, arg_r=_exp(res.x), status=res.status)
    return out, res.evaluations


def dual_function(u, r: float):
    """(TransformResult, evaluations) of one scalar dual solve."""
    if r < 0:
        raise ValueError("r must be >= 0")
    y_hi = math.log(u.r_max)
    sqrt_r = math.sqrt(r)
    log_u = _scalar_log_u(u)

    def h(y: float) -> float:
        return -(2.0 * sqrt_r * _exp(0.5 * y) - log_u(_exp(y)))

    res = minimize_scalar(h, legendre._Y_LO, y_hi)
    if res.status == STATUS_UPPER_BOUNDARY and r > 0:
        raise legendre.UnboundedError(
            f"sup of exp(2 sqrt({r} s))/{u.name}(s) still increasing at r_max={u.r_max}:"
            " the maximizer lies beyond the search limit r_max,"
            " or u fails the C_+,1/2 growth condition"
        )
    out = legendre.TransformResult(log_value=-res.value, arg_r=_exp(res.x), status=res.status)
    return out, res.evaluations
