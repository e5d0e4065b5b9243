"""Robust 1-D minimization: coarse scan, bracketing, golden-section refinement.

The objective functions arising here (log-space growth functions minus a
linear term) are usually unimodal but that is not guaranteed, so the scan
keeps several candidate brackets and refines each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE = 65  # points of the uniform coarse scan
MULTI_START = 4  # best scan minima refined
TOL = 1e-12  # relative bracket width that ends a golden-section refinement
MAX_ITER = 256

STATUS_OK = "ok"
STATUS_LOWER_BOUNDARY = "lower_boundary"
STATUS_UPPER_BOUNDARY = "upper_boundary"


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


def scan_grid(lo: float, hi: float) -> list[float]:
    """The uniform coarse-scan grid of ``minimize_scalar`` on [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    step = (hi - lo) / (COARSE - 1)
    return [lo + i * step for i in range(COARSE)]


def minimize_scalar(
    f,
    lo: float,
    hi: float,
    scan_values: list[float] | None = None,
) -> ScalarMinResult:
    """Global-ish minimum of f on [lo, hi].

    Scans a uniform grid of ``COARSE`` points, picks the ``MULTI_START``
    best local minima of the scan, and refines each bracket with
    golden-section search.  The status flags when the best point sits on a
    boundary of the search interval, which callers interpret as evidence of
    an unbounded objective.

    ``scan_values``, when given, are f on ``scan_grid(lo, hi)``,
    computed by the caller (for instance from a per-weight table); f is then
    called only by the refinement.  ``evaluations`` counts the calls of f
    made here, so it leaves out a supplied scan.
    """
    xs = scan_grid(lo, hi)
    step = (hi - lo) / (COARSE - 1)
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
