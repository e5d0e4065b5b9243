"""Finite-dimensional chaos-expansion model.

The desk-scale model keeps the first d eigenmodes of the harmonic
oscillator operator (eigenvalues 2j+2, so the inverse has operator norm
1/2) and truncates Wiener chaos at degree N.  Coefficients of degree n
live on symmetric multi-indices m with |m| = n; the stored value is the
common entry of the symmetric tensor, so a multi-index carries the
multinomial multiplicity n!/prod(m_j!).  This convention is pinned by the
Parseval identity  ||phi||_0^2 = sum_n n! |f_n|_0^2, which the test suite
checks bit-stably.

Pointwise evaluation realizes Wick powers as products of probabilists'
Hermite polynomials in the eigencoordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .legendre import dual_of, log_ell_sequence, log_factorial
from .weights import CONSISTENT, VIOLATED, WeightFunction

ROLE_TEST = "test"
ROLE_DISTRIBUTION = "distribution"

HS_PARTIAL_TERMS = 1_000_000  # summed terms of the infinite HS series
SAMPLE_SCALES = (0.5, 1.0, 2.0, 4.0)
_BLOCK_BYTES = 1 << 20  # size of one gathered block of per-mode factors


class ModelMismatchError(ValueError):
    pass


class PremiseError(ValueError):
    """A theorem's contraction premise (a e^2 ||i||_HS^2 < 1) fails."""


def oscillator_eigenvalues(d: int) -> np.ndarray:
    """The first d eigenvalues 2j+2 of the harmonic oscillator operator."""
    return 2.0 * np.arange(d) + 2.0


def hs_norm_inclusion(q: float, p: float, d: int | None = None) -> float:
    """Squared Hilbert-Schmidt norm of the inclusion: sum_j (2j+2)^-(q-p).

    d = None means the full series; a midpoint-rule tail integral brings
    the truncation error below 1e-12.
    """
    s = q - p
    if s <= 0:
        raise ValueError("need q > p")
    if d is not None:
        return float(np.sum(oscillator_eigenvalues(d) ** (-s)))
    if s <= 1.0:
        raise ArithmeticError("series diverges for q - p <= 1 in infinite dimension")
    head = float(np.sum(oscillator_eigenvalues(HS_PARTIAL_TERMS) ** (-s)))
    # tail: 2^-s * sum_{k > K} k^-s, K = HS_PARTIAL_TERMS, with midpoint integral correction
    tail = 2.0 ** (-s) * (HS_PARTIAL_TERMS + 0.5) ** (1.0 - s) / (s - 1.0)
    return head + tail


@dataclass(frozen=True)
class FiniteGaussianModel:
    d: int
    N: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    log_mult: np.ndarray = field(init=False, repr=False, compare=False)
    mult: np.ndarray = field(init=False, repr=False, compare=False)  # exp(log_mult)
    # log prod_j lambda_j^(m_j) per multi-index
    log_eigen_products: np.ndarray = field(init=False, repr=False, compare=False)
    # log n! for n = 0..N, looked up by degree
    log_factorials: np.ndarray = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.N < 0:
            raise ValueError("need d >= 1 and N >= 0")
        lf = [log_factorial(n) for n in range(self.N + 1)]
        rows, lm = [], []
        for n in range(self.N + 1):
            for combo in itertools.combinations_with_replacement(range(self.d), n):
                m = [0] * self.d
                for j in combo:
                    m[j] += 1
                rows.append(m)
                lm.append(lf[n] - sum(lf[mj] for mj in m))
        idx = np.array(rows, dtype=np.int64).reshape(len(rows), self.d)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "degrees", idx.sum(axis=1))
        object.__setattr__(self, "log_mult", np.array(lm))
        object.__setattr__(self, "mult", np.exp(self.log_mult))
        object.__setattr__(self, "log_eigen_products", idx @ np.log(self.eigenvalues))
        object.__setattr__(self, "log_factorials", np.array(lf))

    @property
    def eigenvalues(self) -> np.ndarray:
        return oscillator_eigenvalues(self.d)

    @property
    def n_coeffs(self) -> int:
        return len(self.degrees)

    def index_of(self, m) -> int:
        m = np.asarray(m, dtype=np.int64)
        hits = np.nonzero((self.indices == m).all(axis=1))[0]
        if len(hits) != 1:
            raise KeyError(f"multi-index {m.tolist()} not in model")
        return int(hits[0])

    def mode_log_weights(self, p: float) -> np.ndarray:
        """log of prod_j lambda_j^(2 p m_j) per multi-index."""
        return 2.0 * p * self.log_eigen_products


@dataclass(frozen=True)
class ChaosVector:
    model: FiniteGaussianModel
    coeffs: np.ndarray  # complex, aligned with model.indices
    role: str = ROLE_TEST

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.model.n_coeffs,):
            raise ValueError("coefficient array does not match the model")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def as_distribution(self) -> "ChaosVector":
        return replace(self, role=ROLE_DISTRIBUTION)


def chaos_vector(model: FiniteGaussianModel, entries: dict, role: str = ROLE_TEST) -> ChaosVector:
    """Build a vector from {multi-index tuple: coefficient} entries."""
    c = np.zeros(model.n_coeffs, dtype=complex)
    for m, v in entries.items():
        c[model.index_of(m)] = v
    return ChaosVector(model=model, coeffs=c, role=role)


# ---------------------------------------------------------------------------
# norms


def mode_norm(phi: ChaosVector, n: int, p: float) -> float:
    """|f_n|_p = |(A tensor-power)^p f_n| under the multiplicity convention."""
    model = phi.model
    mask = model.degrees == n
    w = model.log_mult[mask] + model.mode_log_weights(p)[mask]
    return math.sqrt(float(np.sum(np.exp(w) * np.abs(phi.coeffs[mask]) ** 2)))


def weighted_norm(phi: ChaosVector, log_ell: np.ndarray, p: float) -> float:
    """(sum_n |f_n|_p^2 / ell(n))^(1/2) for an explicit log ell sequence."""
    model = phi.model
    w = model.log_mult + model.mode_log_weights(p) - log_ell[model.degrees]
    return math.sqrt(float(np.sum(np.exp(w) * np.abs(phi.coeffs) ** 2)))


def test_norm(phi: ChaosVector, u: WeightFunction, p: float) -> float:
    if phi.role != ROLE_TEST:
        raise ValueError("test_norm expects a test-role vector")
    return weighted_norm(phi, log_ell_sequence(u, phi.model.N), p)


def dist_norm(Phi: ChaosVector, u: WeightFunction, p: float) -> float:
    """Dual norm: weights 1/ell_{u*}(n) and negative-order mode weights."""
    if Phi.role != ROLE_DISTRIBUTION:
        raise ValueError("dist_norm expects a distribution-role vector")
    ustar = dual_of(u)
    return weighted_norm(Phi, log_ell_sequence(ustar, Phi.model.N), -p)


def pairing(Phi: ChaosVector, phi: ChaosVector) -> complex:
    """Bilinear pairing sum_n n! <F_n, f_n> (no conjugation)."""
    if Phi.model is not phi.model and (
        Phi.model.d != phi.model.d or Phi.model.N != phi.model.N
    ):
        raise ModelMismatchError("vectors built over different models")
    if Phi.role != ROLE_DISTRIBUTION or phi.role != ROLE_TEST:
        raise ValueError("pairing expects (distribution, test)")
    model = phi.model
    w = np.exp(model.log_factorials[model.degrees] + model.log_mult)
    return complex(np.sum(w * Phi.coeffs * phi.coeffs))


# ---------------------------------------------------------------------------
# coherent states and transforms


def _mode_products(model: FiniteGaussianModel, table: np.ndarray) -> np.ndarray:
    """prod_j table[s, j, m_j] per row s and multi-index m from (S, d, N+1) factors.

    A block of rows gathered C-contiguous as (rows, K, d) has its d factors
    multiplied in order; a transposed block gets numpy's SIMD complex multiply.
    """
    S, width = table.shape[:2]
    if width != model.d:
        raise ValueError(f"sample rows must have {model.d} entries, got {width}")
    flat = model.indices + (model.N + 1) * np.arange(model.d)
    rows = table.reshape(S, -1)
    out = np.empty((S, model.n_coeffs), dtype=table.dtype)
    step = max(1, _BLOCK_BYTES // (flat.size * table.itemsize))
    for lo in range(0, S, step):
        out[lo:lo + step] = np.prod(np.take(rows[lo:lo + step], flat, axis=1), axis=2)
    return out


def coherent_state(model: FiniteGaussianModel, xi, role: str = ROLE_TEST) -> ChaosVector:
    """phi_xi with coefficients f_n = xi^(tensor n)/n!."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (model.d,):
        raise ValueError(f"xi must have dimension {model.d}")
    c = _mode_products(model, xi[None, :, None] ** np.arange(model.N + 1))[0]
    c /= np.array([float(math.factorial(n)) for n in range(model.N + 1)])[model.degrees]
    return ChaosVector(model=model, coeffs=c, role=role)


def _monomials(model: FiniteGaussianModel, xis: np.ndarray) -> np.ndarray:
    """xi^m for each sample row and multi-index: (S, K) complex.

    Repeated transforms of many vectors against one probe sample dominate
    the bound-check suites, so the model keeps the matrix of the last
    sample it saw: 16 MB at d = 6, N = 10 and 128 probes, no (S, K, d) array.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=complex))
    key = (xis.shape, xis.tobytes())
    hit = model._memo.get("monomials")
    if hit is None or hit[0] != key:
        hit = (key, _mode_products(model, xis[:, :, None] ** np.arange(model.N + 1)))
        model._memo["monomials"] = hit
    return hit[1]


def s_transform(Phi: ChaosVector, xi) -> complex:
    """S Phi(xi) = sum_n <F_n, xi^(tensor n)> = pairing with the coherent state."""
    return complex(s_transform_many(Phi, np.asarray(xi, dtype=complex)[None, :])[0])


def s_transform_many(Phi: ChaosVector, xis: np.ndarray) -> np.ndarray:
    V = _monomials(Phi.model, xis)
    return V @ (Phi.model.mult * Phi.coeffs)


def t_transform(Phi: ChaosVector, xi) -> complex:
    """T Phi(xi) = S Phi(i xi) exp(-<xi, xi>/2), bilinear form <xi,xi> = sum xi_j^2."""
    xi = np.asarray(xi, dtype=complex)
    quad = complex(np.sum(xi * xi))
    return s_transform(Phi, 1j * xi) * np.exp(-0.5 * quad)


def s_from_t(Phi: ChaosVector, xi) -> complex:
    """Inverse relation: S Phi(xi) = T Phi(-i xi) exp(-<xi, xi>/2)."""
    xi = np.asarray(xi, dtype=complex)
    quad = complex(np.sum(xi * xi))
    return t_transform(Phi, -1j * xi) * np.exp(-0.5 * quad)


def coherent_tail_bound(z: complex, N: int) -> float:
    """Geometric-domination bound on |sum_{n>N} z^n/n!|."""
    az = abs(z)
    head = az ** (N + 1) / math.factorial(N + 1)
    ratio = az / (N + 2)
    if ratio >= 1.0:
        return math.inf
    return head / (1.0 - ratio)


# ---------------------------------------------------------------------------
# pointwise evaluation (Wick powers via Hermite polynomials)


def _hermite_table(x: np.ndarray, n_max: int) -> np.ndarray:
    """Probabilists' Hermite He_k(x) for k <= n_max; shape x.shape + (n_max+1,)."""
    out = np.empty(x.shape + (n_max + 1,))
    out[..., 0] = 1.0
    if n_max >= 1:
        out[..., 1] = x
    for k in range(2, n_max + 1):
        out[..., k] = x * out[..., k - 1] - (k - 1) * out[..., k - 2]
    return out


def point_eval(phi: ChaosVector, X: np.ndarray) -> np.ndarray:
    """phi(x) = sum_n <:x^(tensor n):, f_n> at sample rows of X (S, d)."""
    model = phi.model
    X = np.atleast_2d(np.asarray(X, dtype=float))
    P = _mode_products(model, _hermite_table(X, model.N))
    return P @ (model.mult * phi.coeffs)


# ---------------------------------------------------------------------------
# growth-bound characterization checks


@dataclass(frozen=True)
class BoundCheckReport:
    verdict: str
    fitted_K: float
    a: float
    p: float
    q: float
    lhs: float
    rhs: float
    hs: float


_BOUND_TOL = 1e-9


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


def check_test_bound(phi: ChaosVector, u: WeightFunction, a: float, p: float,
                     q: float, sample: np.ndarray) -> BoundCheckReport:
    """Growth bound for test functions: fit K from |S phi| <= K u(a|xi|^2_{-p})^(1/2)
    and check ||phi||_{u,q}^2 <= K^2 (1 - a e^2 ||i_{p,q}||_HS^2)^(-1), q < p."""
    if not q < p:
        raise ValueError("test-side check needs q < p")
    if phi.role != ROLE_TEST:
        raise ValueError("check_test_bound expects a test-role vector")
    return _check_bound(phi, u, a, p, q, sample, dual=False)


def check_dist_bound(Phi: ChaosVector, u: WeightFunction, a: float, p: float,
                     q: float, sample: np.ndarray) -> BoundCheckReport:
    """Dual growth bound: fit K from |S Phi| <= K u*(a|xi|^2_p)^(1/2) and check
    ||Phi||_{u*,-q}^2 <= K^2 (1 - a e^2 ||i_{q,p}||_HS^2)^(-1), q > p."""
    if not q > p:
        raise ValueError("distribution-side check needs q > p")
    if Phi.role != ROLE_DISTRIBUTION:
        raise ValueError("check_dist_bound expects a distribution-role vector")
    return _check_bound(Phi, u, a, p, q, sample, dual=True)


def gaussian_sample(rng, n_per_scale: int, d: int) -> np.ndarray:
    """Stratified complex-Gaussian probe vectors across the SAMPLE_SCALES magnitudes."""
    blocks = []
    for s in SAMPLE_SCALES:
        z = rng.standard_normal((n_per_scale, d))
        z = (z + 1j * rng.standard_normal((n_per_scale, d))) / math.sqrt(2.0)
        blocks.append(s * z)
    return np.concatenate(blocks, axis=0)
