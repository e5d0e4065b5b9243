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

SAMPLE_SCALES = (0.5, 1.0, 2.0, 4.0)
# bytes of one block of rows of a mode-product matrix
_BLOCK_BYTES = 1 << 20
# rows of either GEMM operand of an S-transform: the vectors of one chunk and the
# probes of one tile, so every value comes from one (16, K) x (K, 16) GEMM.  With
# OpenBLAS 0.3.31 on x86-64 such a GEMM gave each entry the same bits whatever the
# other rows and columns held, and at 1, 2 and 4 BLAS threads (K from 1 to 20 000);
# wider probe tiles changed bits with the thread count
_TILE = 16


class ModelMismatchError(ValueError):
    pass


class PremiseError(ValueError):
    """A theorem's contraction premise (a e^2 ||i||_HS^2 < 1) fails."""


def oscillator_eigenvalues(d: int) -> np.ndarray:
    """The first d eigenvalues 2j+2 of the harmonic oscillator operator."""
    return 2.0 * np.arange(d) + 2.0


def hs_norm_inclusion(q: float, p: float, d: int | None = None) -> float:
    """Squared Hilbert-Schmidt norm of the inclusion: sum_j (2j+2)^-(q-p).

    d = None means the full series, 2^-s zeta(s) with s = q - p.
    """
    s = q - p
    if s <= 0:
        raise ValueError("need q > p")
    if d is not None:
        return float(np.sum(oscillator_eigenvalues(d) ** (-s)))
    if s <= 1.0:
        raise ArithmeticError("series diverges for q - p <= 1 in infinite dimension")
    import mpmath as mp  # only this branch needs it, so importing wncalc does not

    return float(2**-s * mp.zeta(s))


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
    # (parent prefix, column m_j) per mode j, see _mode_products
    prefix_plan: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.N < 0:
            raise ValueError("need d >= 1 and N >= 0")
        lf = np.array([log_factorial(n) for n in range(self.N + 1)])
        # degree by degree in the order of combinations_with_replacement: each
        # multi-index of degree n - 1 (in order) gains one quantum in each mode
        # from its highest occupied one (``top``) up
        rows, top = np.zeros((1, self.d), dtype=np.int64), np.zeros(1, dtype=np.int64)
        blocks = [rows]
        for _ in range(self.N):
            reps = self.d - top
            top = np.repeat(top - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
            rows = np.repeat(rows, reps, axis=0)
            rows[np.arange(len(rows)), top] += 1
            blocks.append(rows)
        idx = np.concatenate(blocks)
        degrees = idx.sum(axis=1)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "degrees", degrees)
        # log n! - sum_j log m_j!
        object.__setattr__(self, "log_mult", lf[degrees] - lf[idx].sum(axis=1))
        object.__setattr__(self, "mult", np.exp(self.log_mult))
        object.__setattr__(self, "log_eigen_products", idx @ np.log(self.eigenvalues))
        object.__setattr__(self, "log_factorials", lf)
        # ids numbers the distinct prefixes (m_0..m_{j-1}), from the one empty
        # prefix; ids < K, so ids * (N+1) + m_j cannot overflow at any d
        ids, plan = np.zeros(len(idx), dtype=np.int64), []
        for j in range(self.d - 1):
            codes, ids = np.unique(ids * (self.N + 1) + idx[:, j], return_inverse=True)
            plan.append(divmod(codes, self.N + 1))
        plan.append((ids, idx[:, -1]))
        object.__setattr__(self, "prefix_plan", tuple(plan))

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


def _norm_weights(model: FiniteGaussianModel, log_ell: np.ndarray, p: float) -> np.ndarray:
    """The weight of |f_m|^2 in sum_n |f_n|_p^2 / ell(n), per multi-index m."""
    return np.exp(model.log_mult + model.mode_log_weights(p) - log_ell[model.degrees])


def _weighted_norm(weights: np.ndarray, coeffs: np.ndarray) -> float:
    """(sum_m weights_m |c_m|^2)^(1/2) of one coefficient vector."""
    return math.sqrt(float(np.sum(weights * np.abs(coeffs) ** 2)))


def weighted_norm(phi: ChaosVector, log_ell: np.ndarray, p: float) -> float:
    """(sum_n |f_n|_p^2 / ell(n))^(1/2) for an explicit log ell sequence."""
    return _weighted_norm(_norm_weights(phi.model, log_ell, p), phi.coeffs)


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
    if Phi.model != phi.model:
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

    The products go mode by mode over shared prefixes (``model.prefix_plan``):
    mode j multiplies the product of each distinct (m_0..m_{j-1}) by its
    factor, and the last mode gives the multi-indices in model order.  At
    d = 6, N = 10 that is 12 364 products per row, not 40 040.  A real or
    complex table takes numpy's own ``*``.  Rows go in blocks of a quarter of
    ``_BLOCK_BYTES`` per (rows, K) float64 array, twice that for a complex one:
    the last mode holds several such arrays at once.
    """
    S, width = table.shape[:2]
    if width != model.d:
        raise ValueError(f"sample rows must have {model.d} entries, got {width}")
    out = np.empty((S, model.n_coeffs), dtype=table.dtype)
    step = max(1, _BLOCK_BYTES // (4 * model.n_coeffs * 8))
    for lo in range(0, S, step):
        rows = table[lo:lo + step]
        P = np.ones((len(rows), 1), dtype=table.dtype)
        for j, (parent, col) in enumerate(model.prefix_plan):
            P = np.take(P, parent, axis=1) * np.take(rows[:, j], col, axis=1)
        out[lo:lo + step] = P
    return out


def coherent_state(model: FiniteGaussianModel, xi, role: str = ROLE_TEST) -> ChaosVector:
    """phi_xi with coefficients f_n = xi^(tensor n)/n!."""
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (model.d,):
        raise ValueError(f"xi must have dimension {model.d}")
    c = _mode_products(model, xi[None, :, None] ** np.arange(model.N + 1))[0]
    c /= np.array([float(math.factorial(n)) for n in range(model.N + 1)])[model.degrees]
    return ChaosVector(model=model, coeffs=c, role=role)


def _probes(sample) -> np.ndarray:
    """The probe sample as (S, d) complex rows; an empty sample is refused."""
    xis = np.atleast_2d(np.asarray(sample, dtype=complex))
    if len(xis) == 0:
        raise ValueError("the probe sample has no rows")
    return xis


def _monomials(model: FiniteGaussianModel, xis: np.ndarray) -> np.ndarray:
    """xi^m for each probe row of ``_probes`` and multi-index, with zero probes
    appended up to a multiple of ``_TILE`` rows: (S', K) complex.

    ``_mode_products`` builds it from the (S', d, N+1) table of powers xi_j^k.
    Repeated transforms of many vectors against one probe sample dominate
    the bound-check suites, so the model keeps the matrix of the last
    sample it saw: 16 MB at d = 6, N = 10 and 128 probes.
    """
    key = (xis.shape, xis.tobytes())
    hit = model._memo.get("monomials")
    if hit is None or hit[0] != key:
        padded = np.zeros((-(-len(xis) // _TILE) * _TILE, xis.shape[1]), dtype=complex)
        padded[:len(xis)] = xis
        hit = (key, _mode_products(model, padded[:, :, None] ** np.arange(model.N + 1)))
        model._memo["monomials"] = hit
    return hit[1]


def s_transform(Phi: ChaosVector, xi) -> complex:
    """S Phi(xi) = sum_n <F_n, xi^(tensor n)> = pairing with the coherent state."""
    return complex(s_transform_many(Phi, np.asarray(xi, dtype=complex)[None, :])[0])


def s_transform_many(Phi, xis: np.ndarray) -> np.ndarray:
    """S Phi at each sample row: (S,) for one vector, (V, S) for a sequence of V
    vectors over one model.

    The vectors go in chunks of ``_TILE``: each is copied, times its
    multiplicities, into one zero-padded (``_TILE``, K) array, and one stacked
    complex GEMM against the tiles of the cached monomial matrix gives the
    chunk's transforms.  Both operands of every GEMM are whole tiles, so a
    value's bits depend only on its vector and its probe: not on the batch,
    the sample around them or the BLAS thread count.
    """
    single = isinstance(Phi, ChaosVector)
    vecs = [Phi] if single else list(Phi)
    model = vecs[0].model
    xis = _probes(xis)
    # (tiles, K, _TILE) views of the (S', K) monomial matrix
    tiles = _monomials(model, xis).reshape(-1, _TILE, model.n_coeffs).transpose(0, 2, 1)
    X = np.empty((_TILE, model.n_coeffs), dtype=complex)
    out = np.empty((len(vecs), len(xis)), dtype=complex)
    for lo in range(0, len(vecs), _TILE):
        chunk = vecs[lo:lo + _TILE]
        for row, v in zip(X, chunk):
            np.multiply(model.mult, v.coeffs, out=row)
        X[len(chunk):] = 0.0
        out[lo:lo + len(chunk)] = np.hstack(X @ tiles)[:len(chunk), :len(xis)]
    return out[0] if single else out


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


def _check_bound(vecs, u: WeightFunction, a: float, p: float, q: float,
                 sample: np.ndarray, dual: bool):
    """Fit K from |S vec| <= K w(a|xi|^2_level)^(1/2) and check sum_n |f_n|_order^2 /
    ell_w(n) <= K^2 (1 - a e^2 ||i||_HS^2)^(-1), with w = u, or w = u* under ``dual``.

    ``vecs`` is one vector, which gets one report, or an iterable of vectors over
    one model and role, which gets a list.  The premise, u*, the probe weights and
    the ell weights are worked out once; the vectors are then read in chunks of
    ``_TILE``, one ``s_transform_many`` GEMM each, so a generator is never held
    whole.  Each norm sums its own vector, so no report depends on its batch.
    """
    role, name = ((ROLE_DISTRIBUTION, "check_dist_bound") if dual
                  else (ROLE_TEST, "check_test_bound"))
    if not (math.isfinite(a) and a >= 0.0):
        raise ValueError(f"{name} needs a finite a >= 0, got {a}")
    xis = _probes(sample)
    single = isinstance(vecs, ChaosVector)
    it = iter([vecs] if single else vecs)
    first = next(it, None)
    if first is None:
        return []
    model = first.model

    def admit(vec):
        if vec.role != role:
            raise ValueError(f"{name} expects a {role}-role vector")
        if vec.model != model:
            raise ModelMismatchError("vectors built over different models")
        return vec

    admit(first)
    hs = hs_norm_inclusion(max(p, q), min(p, q), d=model.d)
    contraction = a * math.e**2 * hs
    if not contraction < 1.0:
        raise PremiseError(f"a e^2 ||i||_HS^2 = {contraction} >= 1")
    # u* only once the premise holds: a failed premise builds nothing
    w, level, order = (dual_of(u), p, -q) if dual else (u, -p, q)
    norms2 = (np.abs(xis) ** 2) @ (model.eigenvalues ** (2.0 * level))
    probe_weights = np.exp(-0.5 * w.log_eval(a * norms2))
    ell_weights = _norm_weights(model, log_ell_sequence(w, model.N), order)
    it = itertools.chain([first], it)
    reports = []
    while chunk := list(map(admit, itertools.islice(it, _TILE))):
        Ks = np.max(np.abs(s_transform_many(chunk, xis)) * probe_weights, axis=-1)
        for K, vec in zip(Ks.tolist(), chunk):
            lhs = _weighted_norm(ell_weights, vec.coeffs) ** 2
            rhs = K**2 / (1.0 - contraction)
            verdict = CONSISTENT if lhs <= rhs * (1.0 + _BOUND_TOL) else VIOLATED
            reports.append(BoundCheckReport(verdict=verdict, fitted_K=K, a=a, p=p, q=q,
                                            lhs=lhs, rhs=rhs, hs=hs))
    return reports[0] if single else reports


def check_test_bound(phi, u: WeightFunction, a: float, p: float, q: float,
                     sample: np.ndarray):
    """Growth bound for test functions: fit K from |S phi| <= K u(a|xi|^2_{-p})^(1/2)
    and check ||phi||_{u,q}^2 <= K^2 (1 - a e^2 ||i_{p,q}||_HS^2)^(-1), q < p.

    One vector gets one report; an iterable of vectors over one model gets a list."""
    if not q < p:
        raise ValueError("test-side check needs q < p")
    return _check_bound(phi, u, a, p, q, sample, dual=False)


def check_dist_bound(Phi, u: WeightFunction, a: float, p: float, q: float,
                     sample: np.ndarray):
    """Dual growth bound: fit K from |S Phi| <= K u*(a|xi|^2_p)^(1/2) and check
    ||Phi||_{u*,-q}^2 <= K^2 (1 - a e^2 ||i_{q,p}||_HS^2)^(-1), q > p.

    One vector gets one report; an iterable of vectors over one model gets a list."""
    if not q > p:
        raise ValueError("distribution-side check needs q > p")
    return _check_bound(Phi, u, a, p, q, sample, dual=True)


def gaussian_sample(rng, n_per_scale: int, d: int) -> np.ndarray:
    """Stratified complex-Gaussian probe vectors across the SAMPLE_SCALES magnitudes."""
    blocks = []
    for s in SAMPLE_SCALES:
        z = rng.standard_normal((n_per_scale, d))
        z = (z + 1j * rng.standard_normal((n_per_scale, d))) / math.sqrt(2.0)
        blocks.append(s * z)
    return np.concatenate(blocks, axis=0)
