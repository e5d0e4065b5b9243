"""Frozen scalar kernels: each array kernel of ``wncalc`` must match one bit for bit.

These are the per-radius ``log u`` evaluators ``wncalc.weights`` had before
every kernel took an array, kept verbatim: the ``power_exp`` closure, the
``_descend``-based Bell kernel, ``sqrt_log`` through ``log_k`` and
``custom_table``'s scalar ``np.interp``.  ``Hermite`` is the u* evaluator of
``wncalc.legendre`` written one radius at a time, with ``bisect`` for the
interval, of the knots or of the linear part below them, and Python floats
for the arithmetic.  Each takes one Python float
in (0, r_max] and returns a Python float.

``char_fn`` and ``poisson_char`` are the characteristic functionals of
``wncalc.measures`` at one argument xi, as they were before they took a
(k, d) array, with the grey model's per-model memo of L_lam(t) dropped:
it kept values, never changed one.  The grey one makes one scalar
``measures.mittag_leffler`` call per argument, so a grey array ``char_fn``
must give the bits of those calls; the values themselves are checked against
40-digit references in ``test_mittag_leffler_oracle``.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from wncalc import measures

_LEVEL_DOWN_CAP = 700.0


class PrecisionError(ArithmeticError):
    pass


def _descend(level: int, x: float) -> float:
    while level > 0 and x <= _LEVEL_DOWN_CAP:
        x = math.exp(x)
        level -= 1
    if level:
        raise PrecisionError(f"value exp^{level}({x!r}) does not fit in a double")
    return x


def log_k(k: int, r: float) -> float:
    x = float(r)
    for _ in range(k):
        x = math.log(max(math.e, x))
    return x


def power_exp(beta: float):
    expo = 1.0 / (1.0 + beta)

    def f(r: float) -> float:
        return (1.0 + beta) * r**expo

    return f


def bell(k: int):
    base = _descend(k - 1, 0.0)

    def f(r: float) -> float:
        return _descend(k - 1, float(r)) - base

    return f


def sqrt_log(k: int):
    def f(r: float) -> float:
        return 2.0 * math.sqrt(r * log_k(k - 1, math.sqrt(r)))

    return f


def custom_table(points):
    pts = sorted((float(r), float(v)) for r, v in points)
    u0 = 0.0
    if pts[0][0] == 0.0:
        u0 = pts[0][1]
        pts = pts[1:]
    logr = np.log([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    r_lo = pts[0][0]

    def f(r: float) -> float:
        if r < r_lo:
            return u0 + (vals[0] - u0) * (r / r_lo)
        return float(np.interp(math.log(r), logr, vals))

    return f


class Hermite:
    """log u* at one radius from the knots, the (4, n-1) cubic coefficient rows and the
    (2, m) rows of radii and log u* below the first knot, as ``legendre.dual_weight``
    keeps them: exp of the cubic of log log u* at log r on the knot interval holding
    it, and below the first knot linear in r between those points."""

    def __init__(self, knots: np.ndarray, coefficients: np.ndarray, below: np.ndarray):
        self.knots = knots.tolist()
        self.pieces = list(zip(*(row.tolist() for row in coefficients)))
        self.below_r, self.below_v = (row.tolist() for row in below)

    def __call__(self, r: float) -> float:
        knots = self.knots
        x = math.log(r)
        if x < knots[0]:
            rp, vp = self.below_r, self.below_v
            j = min(bisect.bisect_right(rp, r) - 1, len(rp) - 2)
            return vp[j] + (vp[j + 1] - vp[j]) * ((r - rp[j]) / (rp[j + 1] - rp[j]))
        i = min(bisect.bisect_right(knots, x) - 1, len(knots) - 2)
        s = x - knots[i]
        c0, c1, c2, c3 = self.pieces[i]
        return math.exp(c3 + s * (c2 + s * (c1 + s * c0)))


def poisson_char(xi, intensity: float) -> complex:
    if intensity <= 0:
        raise ValueError("intensity must be positive")
    xi = np.asarray(xi, dtype=float)
    return complex(np.exp(intensity * np.sum(np.exp(1j * xi) - 1.0)))


def char_fn(model, xi):
    xi = np.asarray(xi, dtype=float)
    if model.kind == measures.KIND_GAUSSIAN:
        return math.exp(-0.5 * float(np.sum(xi * xi)))
    if model.kind == measures.KIND_GREY:
        t = float(np.sum(xi * xi))
        return measures.mittag_leffler(model.lam, t)
    return poisson_char(xi, model.intensity)
