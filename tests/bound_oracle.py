"""Per-vector bound checks, the reference for the batched ``wncalc.chaos`` suite.

``_fit_K``, ``_check_bound`` and ``weighted_norm`` are kept from before a
bound check took a batch of vectors: each vector repeats the probe-weight
``log_eval``, the ell-weight ``exp`` and one GEMV over the whole monomial
matrix.  ``s_transform_many`` builds that matrix with the broadcast power
array of ``mode_products_oracle``, not with ``wncalc``.  ``model_arrays`` is
the per-multi-index loop that built ``FiniteGaussianModel`` before its build
was vectorized.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mode_products_oracle import monomials
from wncalc.chaos import (
    BoundCheckReport,
    ChaosVector,
    PremiseError,
    _BOUND_TOL,
    hs_norm_inclusion,
)
from wncalc.legendre import dual_of, log_ell_sequence, log_factorial
from wncalc.weights import CONSISTENT, VIOLATED, WeightFunction


def model_arrays(d: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, log_mult) of a d-mode, degree-N model."""
    lf = [log_factorial(n) for n in range(N + 1)]
    rows, lm = [], []
    for n in range(N + 1):
        for combo in itertools.combinations_with_replacement(range(d), n):
            m = [0] * d
            for j in combo:
                m[j] += 1
            rows.append(m)
            lm.append(lf[n] - sum(lf[mj] for mj in m))
    idx = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    return idx, np.array(lm)


def weighted_norm(phi: ChaosVector, log_ell: np.ndarray, p: float) -> float:
    """(sum_n |f_n|_p^2 / ell(n))^(1/2) for an explicit log ell sequence."""
    model = phi.model
    w = model.log_mult + model.mode_log_weights(p) - log_ell[model.degrees]
    return math.sqrt(float(np.sum(np.exp(w) * np.abs(phi.coeffs) ** 2)))


# the monomial matrix of the last (model, sample): the broadcast build is slow
_last_monomials = {}


def s_transform_many(Phi: ChaosVector, xis: np.ndarray) -> np.ndarray:
    key = (Phi.model, xis.shape, xis.tobytes())
    if key not in _last_monomials:
        _last_monomials.clear()
        _last_monomials[key] = monomials(Phi.model, xis)
    return _last_monomials[key] @ (Phi.model.mult * Phi.coeffs)


def _fit_K(vec: ChaosVector, w: WeightFunction, a: float, level: float,
           sample: np.ndarray) -> float:
    """max over the sample of |S(xi)| w(a |xi|^2_level)^(-1/2)."""
    xis = np.atleast_2d(np.asarray(sample, dtype=complex))
    model = vec.model
    weights = model.eigenvalues ** (2.0 * level)
    norms2 = (np.abs(xis) ** 2) @ weights
    vals = np.abs(s_transform_many(vec, xis))
    logw = w.log_eval(a * norms2)
    return float(np.max(vals * np.exp(-0.5 * logw)))


def _check_bound(vec: ChaosVector, u: WeightFunction, a: float, p: float, q: float,
                 sample: np.ndarray, dual: bool) -> BoundCheckReport:
    """Fit K from |S vec| <= K w(a|xi|^2_level)^(1/2) and check sum_n |f_n|_order^2 /
    ell_w(n) <= K^2 (1 - a e^2 ||i||_HS^2)^(-1), with w = u, or w = u* under ``dual``."""
    hs = hs_norm_inclusion(max(p, q), min(p, q), d=vec.model.d)
    contraction = a * math.e**2 * hs
    if contraction >= 1.0:
        raise PremiseError(f"a e^2 ||i||_HS^2 = {contraction} >= 1")
    # u* only once the premise holds: a failed premise builds nothing
    w, level, order = (dual_of(u), p, -q) if dual else (u, -p, q)
    K = _fit_K(vec, w, a, level, sample)
    lhs = weighted_norm(vec, log_ell_sequence(w, vec.model.N), order) ** 2
    rhs = K**2 / (1.0 - contraction)
    verdict = CONSISTENT if lhs <= rhs * (1.0 + _BOUND_TOL) else VIOLATED
    return BoundCheckReport(verdict=verdict, fitted_K=K, a=a, p=p, q=q,
                            lhs=lhs, rhs=rhs, hs=hs)
