"""Frozen scalar kernels: each array kernel of ``wncalc`` must match one bit for bit.

These are the per-radius ``log u`` evaluators ``wncalc.weights`` and
``wncalc.legendre`` had before every kernel took an array, kept verbatim:
the ``power_exp`` closure, the ``_descend``-based Bell kernel, ``sqrt_log``
through ``log_k``, ``custom_table``'s scalar ``np.interp`` and the u*
evaluator ``_Pchip.__call__`` with ``_dual_log_eval``.  Each takes one
Python float in (0, r_max] and returns a Python float.

``char_fn`` and ``poisson_char`` are the characteristic functionals of
``wncalc.measures`` at one argument xi, as they were before they took a
(k, d) array, with the grey model's per-model memo of L_lam(t) dropped:
it kept values, never changed one.
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


class Pchip:
    """Scalar PCHIP on knots x from the (4, n-1) coefficient rows of ``_pchip_coefficients``."""

    def __init__(self, x: np.ndarray, coefficients: np.ndarray):
        c0, c1, c2, c3 = coefficients
        self.knots = x.tolist()
        self.pieces = list(zip(c0.tolist(), c1.tolist(), c2.tolist(), (c3 + 0.0).tolist()))

    def __call__(self, x: float) -> float:
        knots = self.knots
        if not knots[0] <= x <= knots[-1]:
            return math.nan
        i = min(bisect.bisect_right(knots, x) - 1, len(knots) - 2)
        s = x - knots[i]
        c0, c1, c2, c3 = self.pieces[i]
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * (s * s * s)


def dual_log_eval(pchip: Pchip, r_lo: float, r: float) -> float:
    x = math.log(r)
    if x < pchip.knots[0]:
        return pchip(pchip.knots[0]) * (r / r_lo)
    return pchip(x)


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
