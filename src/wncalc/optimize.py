"""Robust 1-D minimization of a batch of objectives: coarse scan, bracketing,
golden-section refinement.

The objective functions arising here (log-space growth functions minus a
linear term) are usually unimodal but that is not guaranteed, so the scan
of each row keeps several candidate brackets and refines each one.  All rows
of a batch share one scan grid, and the caller supplies the scan values.

Every bracket of a batch is refined in lockstep in numpy arrays, with the
float operations of a one-bracket golden-section search (Kiefer, Proc. AMS
4, 1953) in the same order, so each bracket ends on the bits that search
reaches; a bracket leaves the live set when its own width test passes.  The
objective is called once per step on the points of all live brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    x: np.ndarray  # one element per row of the batch
    value: np.ndarray
    status: np.ndarray  # of str
    evaluations: int  # objective values computed, summed over the rows


def _golden_sections(f, ks: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Golden-section search of objective ks[j] on [a[j], b[j]] for every
    bracket j in lockstep: (x, value at x, evaluation count)."""
    step = _INV_GOLDEN * (b - a)
    c, d = b - step, a + step
    fc, fd = f(ks, c), f(ks, d)
    x, evals = np.empty(len(ks)), 3 * len(ks)  # the two first points and the last
    live, k = np.arange(len(ks)), ks  # the brackets not yet narrow enough, and their objectives
    for _ in range(MAX_ITER):
        done = b - a <= TOL * (1.0 + np.abs(a) + np.abs(b))
        if done.any():
            x[live[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            live, k, a, b, c, d, fc, fd = (v[keep] for v in (live, k, a, b, c, d, fc, fd))
        if not live.size:
            break
        # fc < fd keeps [a, d], else [c, b]; a NaN comparison is False, as in Python
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _INV_GOLDEN * (b - a)
        p = np.where(left, b - step, a + step)
        fp = f(k, p)
        evals += live.size
        c, d, fc, fd = (np.where(left, p, d), np.where(left, c, p),
                        np.where(left, fp, fd), np.where(left, fc, fp))
    x[live] = 0.5 * (a + b)  # brackets stopped by MAX_ITER
    return x, f(ks, x), evals


def scan_grid(lo: float, hi: float) -> np.ndarray:
    """The uniform coarse-scan grid of ``minimize_scalar`` on [lo, hi]."""
    if not hi > lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    return lo + (hi - lo) / (COARSE - 1) * np.arange(COARSE)


def minimize_scalar(f, lo: float, hi: float, scan) -> BatchMinResult:
    """Global-ish minimum on [lo, hi] of every objective of a batch.

    ``scan`` is an (n, COARSE) array whose row k is objective k on
    ``scan_grid(lo, hi)``, computed by the caller; ``f(ks, ys)`` is the array of
    objective ks[j] at ys[j], called only by the refinement.  Each row refines the
    ``MULTI_START`` best local minima of its scan, in stable order of value, and
    keeps the first strict minimum of the refined values.  The status flags a
    minimum on a boundary of the interval, which callers read as evidence of an
    unbounded objective, or a row without any finite value.
    """
    xs = scan_grid(lo, hi)
    edge = 2.0 * ((hi - lo) / (COARSE - 1))  # two scan steps
    vals = np.asarray(scan, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != COARSE:
        raise ValueError(f"need rows of {COARSE} scan values, got shape {vals.shape}")
    n = len(vals)
    # local minima of the scan (including endpoints), in stable order of value
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=math.inf)
    local = (vals <= padded[:, :-2]) & (vals <= padded[:, 2:]) & np.isfinite(vals)
    order = np.argsort(np.where(local, vals, math.inf), axis=1, kind="stable")
    count = np.minimum(local.sum(axis=1), MULTI_START)
    for i in np.flatnonzero(count == 0):  # no finite local minimum: the least value
        order[i, 0], count[i] = min(range(COARSE), key=vals[i].tolist().__getitem__), 1
    rows, slots = np.nonzero(np.arange(MULTI_START) < count[:, None])
    cols = order[rows, slots]

    a, b = xs[np.maximum(cols - 1, 0)], xs[np.minimum(cols + 1, COARSE - 1)]
    x, v = xs[cols], vals[rows, cols]  # a bracket without width keeps its scan point
    wide = ~(b <= a)
    x[wide], v[wide], evals = _golden_sections(f, rows[wide], a[wide], b[wide])

    refined_x = np.full((n, MULTI_START), math.nan)
    refined_v = np.full((n, MULTI_START), math.inf)
    refined_x[rows, slots], refined_v[rows, slots] = x, v
    best_x, best_v = np.full(n, math.nan), np.full(n, math.inf)
    for j in range(MULTI_START):  # the first strict minimum: NaN and inf never win
        better = refined_v[:, j] < best_v
        best_x = np.where(better, refined_x[:, j], best_x)
        best_v = np.where(better, refined_v[:, j], best_v)

    no_finite = best_v == math.inf
    lower = ~no_finite & (best_x - lo < edge) & (vals[:, 0] <= vals[:, 1])
    upper = ~no_finite & ~lower & (hi - best_x < edge) & (vals[:, -1] <= vals[:, -2])
    status = np.select([no_finite, lower, upper],
                       [STATUS_NO_FINITE, STATUS_LOWER_BOUNDARY, STATUS_UPPER_BOUNDARY], STATUS_OK)
    return BatchMinResult(x=best_x, value=best_v, status=status, evaluations=evals)
