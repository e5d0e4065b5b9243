"""Robust 1-D minimization of a batch of objectives: coarse scan, bracketing,
golden-section refinement.

The objective functions arising here (log-space growth functions minus a
linear term) are usually unimodal but that is not guaranteed, so the scan
of each row keeps several candidate brackets and refines each one.  All rows
of a batch share one scan grid, and the caller supplies the scan values.

Each bracket is refined on its own, in Python floats.  A refinement of all
brackets in lockstep in numpy arrays gave the same bits, but its short-lived
arrays fragmented the heap around the 16 MB monomial matrix of ``chaos-bounds``
(peak RSS +15 MB in 3 of 4 runs, 2-core VM) while an (S, K, d) power array was
still built for it.  No such array is built now; the lockstep is not re-measured.
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
STATUS_NO_FINITE = "no_finite"  # no refined candidate of the row is finite


@dataclass(frozen=True)
class BatchMinResult:
    x: tuple[float, ...]
    value: tuple[float, ...]
    status: tuple[str, ...]
    evaluations: int  # calls of the objective, summed over the rows


def _refine(f, k: int, a: float, b: float):
    """Golden-section search of f(k, .) on [a, b]: (x, f(k, x), evaluation count)."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(k, c), f(k, d)
    evals = 2
    for _ in range(MAX_ITER):
        if b - a <= TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(k, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(k, d)
        evals += 1
    x = 0.5 * (a + b)
    return x, f(k, x), evals + 1


def scan_grid(lo: float, hi: float) -> list[float]:
    """The uniform coarse-scan grid of ``minimize_scalar`` on [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    step = (hi - lo) / (COARSE - 1)
    return [lo + i * step for i in range(COARSE)]


def minimize_scalar(f, lo: float, hi: float, scan_values) -> BatchMinResult:
    """Global-ish minimum on [lo, hi] of every objective of a batch.

    Row k of ``scan_values`` (any iterable of rows) is objective k on
    ``scan_grid(lo, hi)``, computed by the caller; ``f(k, y)`` is objective
    k at y, called only by the refinement.  Each row refines the
    ``MULTI_START`` best local minima of its scan, in stable order of value,
    and keeps the first strict minimum of the refined values.  The status
    flags a minimum on a boundary of the interval, which callers read as
    evidence of an unbounded objective, or a row without any finite value.
    """
    xs = scan_grid(lo, hi)
    edge = 2.0 * ((hi - lo) / (COARSE - 1))  # two scan steps
    found, evals = [], 0
    for k, vals in enumerate(scan_values):
        if len(vals) != COARSE:
            raise ValueError(f"need rows of {COARSE} scan values, got {len(vals)}")
        # local minima of the scan (including endpoints)
        candidates = []
        for i in range(COARSE):
            left = vals[i - 1] if i > 0 else math.inf
            right = vals[i + 1] if i < COARSE - 1 else math.inf
            if vals[i] <= left and vals[i] <= right and math.isfinite(vals[i]):
                candidates.append(i)
        if not candidates:
            candidates = [min(range(COARSE), key=lambda j: vals[j])]
        candidates.sort(key=lambda j: vals[j])

        best_x, best_v = math.nan, math.inf
        for i in candidates[:MULTI_START]:
            a = xs[max(i - 1, 0)]
            b = xs[min(i + 1, COARSE - 1)]
            if b <= a:
                x, v = xs[i], vals[i]
            else:
                x, v, n = _refine(f, k, a, b)
                evals += n
            if v < best_v:
                best_x, best_v = x, v

        status = STATUS_OK
        if best_v == math.inf:
            status = STATUS_NO_FINITE
        elif best_x - lo < edge and vals[0] <= vals[1]:
            status = STATUS_LOWER_BOUNDARY
        elif hi - best_x < edge and vals[-1] <= vals[-2]:
            status = STATUS_UPPER_BOUNDARY
        found.append((best_x, best_v, status))
    x, value, status = zip(*found) if found else ((), (), ())
    return BatchMinResult(x=x, value=value, status=status, evaluations=evals)
