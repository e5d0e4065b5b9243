"""Robust 1-D minimization: coarse scan, bracketing, golden-section refinement.

The objective functions arising here (log-space growth functions minus a
linear term) are usually unimodal but that is not guaranteed, so the scan
keeps several candidate brackets and refines each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

STATUS_OK = "ok"
STATUS_LOWER_BOUNDARY = "lower_boundary"
STATUS_UPPER_BOUNDARY = "upper_boundary"


@dataclass(frozen=True)
class ScalarMinResult:
    x: float
    value: float
    status: str
    evaluations: int


def golden_section(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 256):
    """Minimize f on [a, b]. Returns (x, f(x), evaluation count)."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    for _ in range(max_iter):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
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


def scan_grid(lo: float, hi: float, coarse: int = 65) -> list[float]:
    """The uniform coarse-scan grid of ``minimize_scalar`` on [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    step = (hi - lo) / (coarse - 1)
    return [lo + i * step for i in range(coarse)]


def minimize_scalar(
    f,
    lo: float,
    hi: float,
    coarse: int = 65,
    multi_start: int = 4,
    tol: float = 1e-12,
    scan_values: list[float] | None = None,
) -> ScalarMinResult:
    """Global-ish minimum of f on [lo, hi].

    Scans a uniform grid, picks the `multi_start` best local minima of the
    scan, and refines each bracket with golden-section search.  The status
    flags when the best point sits on a boundary of the search interval,
    which callers interpret as evidence of an unbounded objective.

    ``scan_values``, when given, are f on ``scan_grid(lo, hi, coarse)``,
    computed by the caller (for instance from a per-weight table); f is then
    called only by the refinement.  ``evaluations`` counts the calls of f
    made here, so it leaves out a supplied scan.
    """
    xs = scan_grid(lo, hi, coarse)
    step = (hi - lo) / (coarse - 1)
    if scan_values is None:
        vals = [f(x) for x in xs]
        evals = coarse
    else:
        if len(scan_values) != coarse:
            raise ValueError(f"need {coarse} scan values, got {len(scan_values)}")
        vals = scan_values
        evals = 0

    # local minima of the scan (including endpoints)
    candidates = []
    for i in range(coarse):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i < coarse - 1 else math.inf
        if vals[i] <= left and vals[i] <= right and math.isfinite(vals[i]):
            candidates.append(i)
    if not candidates:
        i = min(range(coarse), key=lambda k: vals[k])
        candidates = [i]
    candidates.sort(key=lambda k: vals[k])
    candidates = candidates[:multi_start]

    best_x, best_v = None, math.inf
    for i in candidates:
        a = xs[max(i - 1, 0)]
        b = xs[min(i + 1, coarse - 1)]
        if b <= a:
            x, v = xs[i], vals[i]
        else:
            x, v, n = golden_section(f, a, b, tol=tol)
            evals += n
        if v < best_v:
            best_x, best_v = x, v

    status = STATUS_OK
    edge = 2.0 * step
    if best_x - lo < edge and vals[0] <= vals[1]:
        status = STATUS_LOWER_BOUNDARY
    elif hi - best_x < edge and vals[-1] <= vals[-2]:
        status = STATUS_UPPER_BOUNDARY
    return ScalarMinResult(x=best_x, value=best_v, status=status, evaluations=evals)
