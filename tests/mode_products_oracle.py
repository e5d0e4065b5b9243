"""Frozen products over modes: the reference ``chaos._mode_products`` must match bit for bit.

These are the three ways ``wncalc.chaos`` formed prod_j f_j(m_j) before it
had one helper, kept verbatim: the broadcast power array of ``_monomials``
(one power per probe, multi-index and mode), the per-multi-index loop of
``coherent_state`` and the per-mode loop of ``point_eval``.
"""

from __future__ import annotations

import math

import numpy as np

from wncalc.chaos import _hermite_table


def monomials(model, xis) -> np.ndarray:
    xis = np.atleast_2d(np.asarray(xis, dtype=complex))
    return np.prod(xis[:, None, :] ** model.indices[None, :, :], axis=2)


def coherent_coeffs(model, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=complex)
    c = np.empty(model.n_coeffs, dtype=complex)
    for i, (m, n) in enumerate(zip(model.indices, model.degrees)):
        c[i] = np.prod(xi**m) / math.factorial(int(n))
    return c


def hermite_products(model, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = _hermite_table(X, model.N)  # (S, d, N+1)
    S = X.shape[0]
    P = np.ones((S, model.n_coeffs))
    for j in range(model.d):
        P *= H[:, j, :][:, model.indices[:, j]]
    return P
