import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss, hermeval

import bound_oracle
import mode_products_oracle as oracle
from wncalc import chaos, cli
from wncalc.chaos import (
    ChaosVector,
    FiniteGaussianModel,
    PremiseError,
    chaos_vector,
    check_dist_bound,
    check_test_bound,
    coherent_state,
    coherent_tail_bound,
    gaussian_sample,
    hs_norm_inclusion,
    mode_norm,
    pairing,
    point_eval,
    s_from_t,
    s_transform,
    s_transform_many,
    t_transform,
    weighted_norm,
)
from wncalc.legendre import legendre_transform, log_factorial
from wncalc.weights import power_exp


@pytest.fixture(scope="module")
def model():
    return FiniteGaussianModel(d=3, N=6)


def random_vector(model, rng, role=chaos.ROLE_TEST):
    c = rng.standard_normal(model.n_coeffs) + 1j * rng.standard_normal(model.n_coeffs)
    c *= np.exp(-model.log_factorials[model.degrees])
    return ChaosVector(model=model, coeffs=c, role=role)


class TestModel:
    def test_coefficient_count(self, model):
        # sum_{n<=N} C(n+d-1, d-1) multi-indices
        want = sum(math.comb(n + 2, 2) for n in range(7))
        assert model.n_coeffs == want

    def test_eigenvalues(self, model):
        assert model.eigenvalues.tolist() == [2.0, 4.0, 6.0]

    def test_log_factorial_table_gives_the_multiplicities(self, model):
        assert model.log_factorials.tolist() == [log_factorial(n) for n in range(7)]
        want = [
            log_factorial(int(n)) - sum(log_factorial(int(mj)) for mj in m)
            for n, m in zip(model.degrees, model.indices)
        ]
        assert model.log_mult.tolist() == want

    # from d = 8 on np.sum(axis=1) adds the log m_j! pairwise, not left to right,
    # so at (8, 10) 86 multiplicities differ from the loop's in the last bits
    @pytest.mark.parametrize("d, N", [(6, 10), (4, 6), (9, 4), (1, 12), (20, 3), (3, 0),
                                      (8, 10)])
    def test_build_matches_the_per_multi_index_loop(self, d, N):
        model = FiniteGaussianModel(d=d, N=N)
        indices, log_mult = bound_oracle.model_arrays(d, N)
        assert model.indices.dtype == indices.dtype
        assert model.indices.shape == indices.shape
        assert np.array_equal(model.indices, indices)
        assert_log_mult_close(model, log_mult)

    @pytest.mark.parametrize("d, N", [(6, 10), (8, 10), (9, 4), (1, 12), (20, 3)])
    def test_log_mult_matches_an_fsum_of_lgamma(self, d, N):
        # shares no numpy path: each entry is one correctly rounded sum of libm values
        model = FiniteGaussianModel(d=d, N=N)
        want = [math.fsum([math.lgamma(n + 1)] + [-math.lgamma(mj + 1) for mj in m])
                for n, m in zip(model.degrees.tolist(), model.indices.tolist())]
        assert_log_mult_close(model, np.array(want))

    def test_index_lookup(self, model):
        i = model.index_of((1, 2, 0))
        assert model.indices[i].tolist() == [1, 2, 0]
        with pytest.raises(KeyError):
            model.index_of((7, 0, 0))

    def test_vector_validation(self, model):
        with pytest.raises(ValueError):
            ChaosVector(model=model, coeffs=np.zeros(3))
        bad = np.zeros(model.n_coeffs)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            ChaosVector(model=model, coeffs=bad)


class TestNorms:
    def test_parseval_pins_the_multiplicity_convention(self, model):
        rng = np.random.default_rng(0)
        phi = random_vector(model, rng)
        # ||phi||_0^2 = sum_n n! |f_n|_0^2 with |f_n|_0 from mode_norm
        direct = sum(
            math.factorial(n) * mode_norm(phi, n, 0.0) ** 2 for n in range(7)
        )
        log_ell = np.array([-log_factorial(n) for n in range(7)])
        assert weighted_norm(phi, log_ell, 0.0) ** 2 == pytest.approx(direct, rel=1e-12)

    def test_coherent_mode_norms(self, model):
        xi = np.array([0.3, -0.7, 0.2])
        phi = coherent_state(model, xi)
        nrm = math.sqrt(float(np.sum(xi * xi)))
        for n in range(5):
            assert mode_norm(phi, n, 0.0) == pytest.approx(
                nrm**n / math.factorial(n), rel=1e-12
            )

    def test_pairing_with_self_is_the_parseval_sum(self, model):
        rng = np.random.default_rng(1)
        phi = random_vector(model, rng)
        val = pairing(phi.as_distribution(), phi)
        log_ell = np.array([-log_factorial(n) for n in range(7)])
        # bilinear (no conjugation): compare against sum n! <f_n, f_n>
        direct = complex(sum(
            math.factorial(int(n)) * math.exp(lm) * c * c
            for n, lm, c in zip(model.degrees, model.log_mult, phi.coeffs)
        ))
        assert val == pytest.approx(direct, rel=1e-12)

    def test_equal_models_pair_and_different_ones_do_not(self):
        # models compare by (d, N): a second FiniteGaussianModel(3, 5) object is the same model
        rng = np.random.default_rng(3)
        model, twin = FiniteGaussianModel(d=3, N=5), FiniteGaussianModel(d=3, N=5)
        phi = random_vector(model, rng)
        Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
        on_twin = ChaosVector(model=twin, coeffs=phi.coeffs, role=chaos.ROLE_TEST)
        assert pairing(Phi, on_twin) == pairing(Phi, phi)
        other = random_vector(FiniteGaussianModel(d=3, N=6), rng)
        with pytest.raises(chaos.ModelMismatchError, match="different models"):
            pairing(Phi, other)

    def test_role_checks(self, model):
        rng = np.random.default_rng(2)
        phi = random_vector(model, rng)
        with pytest.raises(ValueError):
            pairing(phi, phi)  # first argument must be a distribution
        with pytest.raises(ValueError):
            chaos.test_norm(phi.as_distribution(), power_exp(0.0), 1.0)


class TestDistNorm:
    """dist_norm against ell_{u*}(n) = (e/n)^n, since u*(r) = e^r for u = power_exp(0)."""

    @pytest.mark.parametrize("m", [(1, 0, 0), (0, 2, 1), (3, 0, 2), (0, 0, 6)])
    def test_one_entry_vector_matches_the_closed_form(self, model, m):
        c, p, n = 0.7 - 1.3j, 1.5, sum(m)
        Phi = chaos_vector(model, {m: c}, role=chaos.ROLE_DISTRIBUTION)
        mult = math.factorial(n) / math.prod(math.factorial(k) for k in m)
        modes = math.prod((2.0 * j + 2.0) ** (-2.0 * p * k) for j, k in enumerate(m))
        want = mult * modes * abs(c) ** 2 / (math.e / n) ** n
        assert chaos.dist_norm(Phi, power_exp(0.0), p) ** 2 == pytest.approx(want, rel=1e-6)

    def test_test_role_vector_is_rejected(self, model):
        phi = chaos_vector(model, {(1, 0, 0): 1.0})
        with pytest.raises(ValueError, match="distribution-role"):
            chaos.dist_norm(phi, power_exp(0.0), 1.0)


class TestTransforms:
    def test_s_transform_is_pairing_with_coherent_state(self, model):
        rng = np.random.default_rng(3)
        Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
        xi = rng.standard_normal(3) * 0.5
        want = pairing(Phi, coherent_state(model, xi))
        assert s_transform(Phi, xi) == pytest.approx(want, rel=1e-12)

    def test_s_t_round_trip(self, model):
        rng = np.random.default_rng(4)
        Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
        for _ in range(20):
            xi = rng.standard_normal(3) * 0.7
            s = s_transform(Phi, xi)
            assert s_from_t(Phi, xi) == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_t_transform_of_vacuum(self, model):
        # for Phi = vacuum (degree 0 only), S = const and T = const e^{-|xi|^2/2}
        Phi = chaos_vector(model, {(0, 0, 0): 2.0}, role=chaos.ROLE_DISTRIBUTION)
        xi = np.array([0.5, -0.25, 1.0])
        want = 2.0 * math.exp(-0.5 * float(np.sum(xi * xi)))
        assert t_transform(Phi, xi) == pytest.approx(want, rel=1e-12)

    def test_probe_of_the_wrong_width_is_rejected(self, model):
        # a width-1 probe must not broadcast to every mode as S(0.5, 0.5, 0.5)
        Phi = random_vector(model, np.random.default_rng(7), chaos.ROLE_DISTRIBUTION)
        for call in (lambda: s_transform(Phi, [0.5]),
                     lambda: t_transform(Phi, [0.5]),
                     lambda: s_transform_many(Phi, np.full((4, 1), 0.5)),
                     lambda: s_transform_many(Phi, np.full((4, 4), 0.5))):
            with pytest.raises(ValueError, match="must have 3 entries, got [14]"):
                call()

    def test_coherent_reproducing_property(self):
        big = FiniteGaussianModel(d=2, N=20)
        rng = np.random.default_rng(5)
        for _ in range(10):
            eta = rng.standard_normal(2) * 0.6
            xi = rng.standard_normal(2) * 0.6
            Phi = coherent_state(big, eta, role=chaos.ROLE_DISTRIBUTION)
            z = float(eta @ xi)
            tail = coherent_tail_bound(z, 20)
            assert tail < 1e-12
            assert s_transform(Phi, xi) == pytest.approx(math.exp(z), abs=10 * tail + 1e-12)


class TestPointEval:
    def test_hermite_realization_of_wick_monomials(self, model):
        x = np.array([[0.4, -1.3, 2.2]])
        # pure degree-2 mode (2,0,0): <:x^2:, e_0^2> = He_2(x_0) = x_0^2 - 1
        phi = chaos_vector(model, {(2, 0, 0): 1.0})
        assert point_eval(phi, x)[0] == pytest.approx(0.4**2 - 1.0, rel=1e-12)
        # mixed mode (1,1,0) carries multiplicity 2: value 2 x_0 x_1
        phi = chaos_vector(model, {(1, 1, 0): 1.0})
        assert point_eval(phi, x)[0] == pytest.approx(2 * 0.4 * (-1.3), rel=1e-12)

    def test_wick_powers_are_orthogonal_under_gauss_hermite(self, model):
        # N+1 Gauss-Hermite nodes integrate every polynomial of degree <= 2N+1
        # against N(0, 1) exactly, so E[He_n(Z) He_m(Z)] = n! delta_nm for n, m <= N
        nodes, w = hermegauss(model.N + 1)
        w = w / math.sqrt(2.0 * math.pi)
        X = np.zeros((len(nodes), model.d))
        X[:, 0] = nodes
        He = [point_eval(chaos_vector(model, {(n, 0, 0): 1.0}), X) for n in range(model.N + 1)]
        gram = np.array([[np.sum(w * a * b) for b in He] for a in He])
        want = np.diag([math.factorial(n) for n in range(model.N + 1)])
        assert np.allclose(gram, want, rtol=1e-12, atol=1e-12 * math.factorial(model.N))
        # two modes on the tensor grid: (1, 1, 0) is 2 Z0 Z1 (multiplicity 2), so
        # E[v^2] = 4, and it is orthogonal to every other two-mode index of degree <= N
        X = np.zeros((len(nodes) ** 2, model.d))
        X[:, 0], X[:, 1] = np.repeat(nodes, len(nodes)), np.tile(nodes, len(nodes))
        w2 = np.outer(w, w).ravel()
        v = point_eval(chaos_vector(model, {(1, 1, 0): 1.0}), X)
        assert np.sum(w2 * v * v) == pytest.approx(4.0, rel=1e-12)
        for m in model.indices.tolist():
            if m[2] == 0 and m != [1, 1, 0]:
                other = point_eval(chaos_vector(model, {tuple(m): 1.0}), X)
                assert abs(np.sum(w2 * v * other)) < 1e-12 * math.factorial(model.N), m

    def test_hermite_table_matches_hermeval(self, model):
        x = np.linspace(-6.0, 6.0, 97)
        table = chaos._hermite_table(x, model.N)
        for k in range(model.N + 1):
            assert np.allclose(table[:, k], hermeval(x, np.eye(model.N + 1)[k]),
                               rtol=1e-13, atol=1e-13), k

    def test_sample_of_the_wrong_width_is_rejected(self, model):
        phi = chaos_vector(model, {(1, 1, 0): 1.0})
        for width in (2, 4):
            with pytest.raises(ValueError, match=f"must have 3 entries, got {width}"):
                point_eval(phi, np.zeros((5, width)))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


def assert_log_mult_close(model, want):
    """log n! - sum_j log m_j! within 1e-13 of log N!, the largest term of any entry."""
    scale = max(1.0, math.lgamma(model.N + 1))
    np.testing.assert_allclose(model.log_mult, want, rtol=0.0, atol=1e-13 * scale)


def assert_transforms_close(got, vecs, xis):
    """Each S value within 1e-13 of sum_m mult_m |c_m xi^m|, the bound of a
    float sum, against the oracle's GEMV over the oracle's monomials."""
    V = oracle.monomials(vecs[0].model, xis)
    for vec, row in zip(vecs, np.atleast_2d(got)):
        x = vec.model.mult * vec.coeffs
        assert np.all(np.abs(row - V @ x) <= 1e-13 * (np.abs(V) @ np.abs(x)))


class TestModeProducts:
    """One helper forms every product over modes, against the three expressions
    it replaced (kept in ``mode_products_oracle``): bit for bit on real factors,
    within 1e-13 relative on complex ones, whose product is numpy's own."""

    @pytest.mark.parametrize("d, N, probes", [(4, 6, 64), (6, 10, 128), (1, 5, 3),
                                              (2, 20, 2), (3, 4, 1), (3, 0, 5),
                                              (9, 4, 36), (8, 10, 16), (20, 2, 5)])
    def test_monomials_and_coherent_states_match_the_oracle(self, d, N, probes):
        model = FiniteGaussianModel(d=d, N=N)
        rng = np.random.default_rng(d * 100 + N)
        xis = gaussian_sample(rng, math.ceil(probes / 4), d)[:probes]
        V = chaos._monomials(model, xis)
        # zero probes pad the matrix to whole tiles: their only monomial is m = 0
        assert V.shape == (-(-probes // chaos._TILE) * chaos._TILE, model.n_coeffs)
        np.testing.assert_allclose(V[:probes], oracle.monomials(model, xis), rtol=1e-13,
                                   atol=0.0)
        zeros = np.zeros((len(V) - probes, d), dtype=complex)
        assert np.array_equal(V[probes:], oracle.monomials(model, zeros))
        for xi in xis[:3]:
            np.testing.assert_allclose(coherent_state(model, xi).coeffs,
                                       oracle.coherent_coeffs(model, xi),
                                       rtol=1e-13, atol=0.0)

    def test_point_eval_over_several_blocks_matches_the_oracle(self):
        model = FiniteGaussianModel(d=4, N=6)
        # the block rule of _mode_products: a quarter of _BLOCK_BYTES per (rows, K) plane
        rows_per_block = chaos._BLOCK_BYTES // (4 * model.n_coeffs * 8)
        X = 2.0 * np.random.default_rng(8).standard_normal((3 * rows_per_block + 7, 4))
        phi = random_vector(model, np.random.default_rng(9))
        P = oracle.hermite_products(model, X)
        assert same_bits(chaos._mode_products(model, chaos._hermite_table(X, model.N)), P)
        want = P @ (np.exp(model.log_mult) * phi.coeffs)
        assert same_bits(point_eval(phi, X), want)

    def test_prefix_plan_walks_every_multi_index(self):
        model = FiniteGaussianModel(d=5, N=4)
        # one product per distinct prefix: C(N + j + 1, j + 1) at mode j, K at the last
        sizes = [len(parent) for parent, _ in model.prefix_plan]
        assert sizes == [math.comb(4 + j + 1, j + 1) for j in range(4)] + [model.n_coeffs]
        prefixes = np.zeros((1, 0), dtype=np.int64)
        for parent, col in model.prefix_plan:
            prefixes = np.column_stack([prefixes[parent], col])
        assert np.array_equal(prefixes, model.indices)

    def test_monomial_build_holds_no_probe_by_index_by_mode_array(self):
        model = FiniteGaussianModel(d=6, N=10)
        xis = gaussian_sample(np.random.default_rng(10), 32, 6)
        tracemalloc.start()
        try:
            V = chaos._monomials(model, xis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.shape == (128, 8008)
        assert peak < 2 * V.nbytes


class TestBounds:
    def test_hs_norm_matches_direct_sum(self):
        want = sum((2.0 * j + 2.0) ** (-2) for j in range(6))
        assert hs_norm_inclusion(2.0, 0.0, d=6) == pytest.approx(want, rel=1e-14)

    def test_hs_norm_infinite_series(self):
        # sum (2j+2)^-s = 2^-s zeta(s): pi^2/24 at s = 2, zeta(3)/8 at s = 3
        assert hs_norm_inclusion(2.0, 0.0) == pytest.approx(math.pi**2 / 24, rel=1e-15)
        assert hs_norm_inclusion(3.5, 0.5) == pytest.approx(1.2020569031595942 / 8, rel=1e-15)
        with pytest.raises(ArithmeticError):
            hs_norm_inclusion(1.0, 0.0)

    def test_premise_error_when_contraction_fails(self, model):
        rng = np.random.default_rng(7)
        phi = random_vector(model, rng)
        sample = gaussian_sample(rng, 4, 3)
        with pytest.raises(PremiseError):
            check_test_bound(phi, power_exp(0.0), a=2.0, p=2.0, q=0.0, sample=sample)

    def test_dist_premise_error_builds_no_dual(self, model):
        rng = np.random.default_rng(7)
        Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
        u = power_exp(0.0)
        with pytest.raises(PremiseError):
            check_dist_bound(Phi, u, a=2.0, p=0.0, q=2.0, sample=gaussian_sample(rng, 4, 3))
        assert "dual" not in u._memo

    @pytest.mark.parametrize("a", [math.nan, -0.1, math.inf])
    def test_a_must_be_finite_and_nonnegative(self, model, a):
        rng = np.random.default_rng(5)
        sample = gaussian_sample(rng, 2, 3)
        u = power_exp(0.0)
        phi = random_vector(model, rng)
        with pytest.raises(ValueError, match="check_test_bound needs a finite a >= 0"):
            check_test_bound(phi, u, a=a, p=2.0, q=0.0, sample=sample)
        with pytest.raises(ValueError, match="check_dist_bound needs a finite a >= 0"):
            check_dist_bound(phi.as_distribution(), u, a=a, p=0.0, q=2.0, sample=sample)
        assert "dual" not in u._memo

    def test_a_nan_contraction_fails_the_premise(self, model):
        # p = nan passes no public side check, but _check_bound must still refuse
        # the NaN contraction it gives
        rng = np.random.default_rng(6)
        phi = random_vector(model, rng)
        with pytest.raises(PremiseError, match="nan"):
            chaos._check_bound(phi, power_exp(0.0), 0.1, math.nan, 0.0,
                               gaussian_sample(rng, 2, 3), dual=False)

    def test_an_empty_probe_sample_is_refused(self, model):
        rng = np.random.default_rng(7)
        phi = random_vector(model, rng)
        empty = np.empty((0, 3), dtype=complex)
        with pytest.raises(ValueError, match="^the probe sample has no rows$"):
            check_test_bound(phi, power_exp(0.0), a=0.1, p=2.0, q=0.0, sample=empty)
        with pytest.raises(ValueError, match="^the probe sample has no rows$"):
            check_dist_bound([phi.as_distribution()], power_exp(0.0), a=0.1, p=0.0,
                             q=2.0, sample=empty)
        with pytest.raises(ValueError, match="^the probe sample has no rows$"):
            s_transform_many(phi, empty)

    def test_bound_checks_hold_on_random_vectors(self, model):
        rng = np.random.default_rng(8)
        sample = gaussian_sample(rng, 8, 3)
        u = power_exp(0.0)
        for _ in range(5):
            phi = random_vector(model, rng)
            rep = check_test_bound(phi, u, a=0.1, p=2.0, q=0.0, sample=sample)
            assert rep.verdict == "consistent"
            assert rep.lhs <= rep.rhs
            Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
            rep = check_dist_bound(Phi, u, a=0.1, p=0.0, q=2.0, sample=sample)
            assert rep.verdict == "consistent"


def suite_sample(rng, rows, d):
    """``rows`` probes: stratified when they split into the four scales, plain otherwise."""
    if rows % 4 == 0:
        return gaussian_sample(rng, rows // 4, d)
    return rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))


def report_bits(rep):
    """The verdict and the bits of every field but the two a GEMM sums."""
    floats = [rep.a, rep.p, rep.q, rep.lhs, rep.hs]
    return rep.verdict, np.array(floats, dtype=float).view(np.uint64).tolist()


def assert_reports_match(got, want):
    """Equal verdicts and bits, and fitted_K and rhs within 1e-13 relative."""
    assert list(map(report_bits, got)) == list(map(report_bits, want))
    for field in ("fitted_K", "rhs"):
        np.testing.assert_allclose([getattr(r, field) for r in got],
                                   [getattr(r, field) for r in want], rtol=1e-13, atol=0.0)


class TestBatchedBounds:
    """A batch of vectors gets the reports of the one-vector-at-a-time path
    (``bound_oracle``): fitted_K and rhs, which sum an S-transform in another
    order, within 1e-13 relative, and every other field bit for bit."""

    @pytest.fixture(scope="class")
    def u(self):
        return power_exp(0.0)

    # 20, 11 and 13 vectors end on a short chunk, and 9, 17 and 36 probes on a
    # padded tile
    @pytest.mark.parametrize("d, N, probes, vectors", [
        (6, 10, 128, 20), (4, 6, 64, 5), (9, 4, 36, 13), (1, 12, 4, 1),
        (6, 10, 9, 11), (6, 10, 17, 3),
    ])
    def test_batch_matches_the_per_vector_oracle(self, u, d, N, probes, vectors):
        model = FiniteGaussianModel(d=d, N=N)
        rng = np.random.default_rng(1000 * d + N)
        sample = suite_sample(rng, probes, d)
        phis = [random_vector(model, rng) for _ in range(vectors)]
        Phis = [random_vector(model, rng, chaos.ROLE_DISTRIBUTION) for _ in range(vectors)]
        got = check_test_bound(iter(phis), u, a=0.1, p=2.0, q=0.0, sample=sample)
        want = [bound_oracle._check_bound(phi, u, 0.1, 2.0, 0.0, sample, dual=False)
                for phi in phis]
        assert_reports_match(got, want)
        got = check_dist_bound(iter(Phis), u, a=0.1, p=0.0, q=2.0, sample=sample)
        want = [bound_oracle._check_bound(Phi, u, 0.1, 0.0, 2.0, sample, dual=True)
                for Phi in Phis]
        assert_reports_match(got, want)
        one = check_test_bound(phis[-1], u, a=0.1, p=2.0, q=0.0, sample=sample)
        assert isinstance(one, chaos.BoundCheckReport)
        assert_reports_match([one], [bound_oracle._check_bound(phis[-1], u, 0.1, 2.0, 0.0,
                                                               sample, dual=False)])

    @pytest.mark.parametrize("d, N, probes, vectors", [(6, 10, 17, 10), (4, 6, 1, 3)])
    def test_transforms_and_norms_match_the_oracle(self, d, N, probes, vectors):
        model = FiniteGaussianModel(d=d, N=N)
        rng = np.random.default_rng(probes)
        xis = suite_sample(rng, probes, d)
        vecs = [random_vector(model, rng) for _ in range(vectors)]
        block = s_transform_many(vecs, xis)
        assert block.shape == (vectors, probes)
        assert_transforms_close(block, vecs, xis)
        log_ell = chaos.log_ell_sequence(power_exp(0.5), N)
        for vec, row in zip(vecs, block):
            assert same_bits(s_transform_many(vec, xis), row)
            assert (weighted_norm(vec, log_ell, 1.5).hex()
                    == bound_oracle.weighted_norm(vec, log_ell, 1.5).hex())

    @pytest.mark.parametrize("d, N, vectors, probes", [(3, 6, 3, 4), (2, 20, 2, 4),
                                                       (6, 10, 1, 2)])
    def test_transforms_match_an_mpmath_sum(self, d, N, vectors, probes):
        # shares no numpy path: sum_m n!/prod_j m_j! c_m xi^m at 40 digits, with the
        # multiplicities as exact integers; each value within 1e-13 of sum |term|
        model = FiniteGaussianModel(d=d, N=N)
        rng = np.random.default_rng(7 * d + N)
        vecs = [random_vector(model, rng) for _ in range(vectors)]
        xis = gaussian_sample(rng, 1, d)[:probes]
        got = s_transform_many(vecs, xis)
        mults = [math.factorial(sum(m)) // math.prod(map(math.factorial, m))
                 for m in model.indices.tolist()]
        with mp.workdps(40):
            for j, xi in enumerate(xis.tolist()):
                powers = [[mp.mpc(x) ** k for k in range(N + 1)] for x in xi]
                monos = [mult * mp.fprod(powers[i][mi] for i, mi in enumerate(m))
                         for mult, m in zip(mults, model.indices.tolist())]
                for vec, row in zip(vecs, got):
                    terms = [c * x for c, x in zip(vec.coeffs.tolist(), monos)]
                    err = abs(mp.mpc(row[j]) - mp.fsum(terms))
                    assert err <= 1e-13 * mp.fsum(abs(t) for t in terms), (j, err)

    def test_a_vectors_fitted_K_does_not_depend_on_its_batch(self, u):
        # every S value comes from one GEMM shape, so a vector's bits are the same
        # alone, one probe at a time, and at any place in a batch of any size
        model = FiniteGaussianModel(d=6, N=10)
        rng = np.random.default_rng(34)
        sample = gaussian_sample(rng, 32, 6)
        phis = [random_vector(model, rng) for _ in range(100)]

        def fitted(vecs):
            reps = check_test_bound(vecs, u, a=0.1, p=2.0, q=0.0, sample=sample)
            reps = [reps] if isinstance(vecs, ChaosVector) else reps
            return [r.fitted_K.hex() for r in reps]

        want = fitted(phis)
        for size in (1, 2, 3, 5, 16, 17, 100):
            for lo in {0, 7, 100 - size}:
                assert fitted(phis[lo:lo + size]) == want[lo:lo + size], (size, lo)
        # the probe weights exactly as _check_bound forms them
        norms2 = (np.abs(sample) ** 2) @ (model.eigenvalues ** -4.0)
        probe_weights = np.exp(-0.5 * u.log_eval(0.1 * norms2))
        for i in (0, 41):
            assert fitted(phis[i]) == [want[i]]
            S = np.array([s_transform(phis[i], xi) for xi in sample])
            assert float(np.max(np.abs(S) * probe_weights)).hex() == want[i]

    def test_suite_memory_stays_chunked(self):
        model = FiniteGaussianModel(d=6, N=10)
        rng = np.random.default_rng(12)
        sample = gaussian_sample(rng, 32, 6)
        u = power_exp(0.0)

        def draws(role):
            return (random_vector(model, rng, role) for _ in range(100))

        tracemalloc.start()
        try:
            tests = check_test_bound(draws(chaos.ROLE_TEST), u, a=0.1, p=2.0, q=0.0,
                                     sample=sample)
            dists = check_dist_bound(draws(chaos.ROLE_DISTRIBUTION), u, a=0.1, p=0.0,
                                     q=2.0, sample=sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tests) == len(dists) == 100
        assert peak < 2 * chaos._monomials(model, sample).nbytes

    def test_empty_batch_builds_nothing(self, model):
        u = power_exp(0.0)
        sample = gaussian_sample(np.random.default_rng(3), 2, 3)
        # the premise fails, but no vector means no check
        assert check_dist_bound(iter([]), u, a=2.0, p=0.0, q=2.0, sample=sample) == []
        assert "dual" not in u._memo

    def test_batch_rejects_a_wrong_role_or_model(self, model):
        rng = np.random.default_rng(4)
        sample = gaussian_sample(rng, 2, 3)
        phi = random_vector(model, rng)
        with pytest.raises(ValueError, match="expects a test-role vector"):
            check_test_bound([phi, phi.as_distribution()], power_exp(0.0), a=0.1, p=2.0,
                             q=0.0, sample=sample)
        other = random_vector(FiniteGaussianModel(d=3, N=5), rng)
        with pytest.raises(chaos.ModelMismatchError):
            check_test_bound([phi, other], power_exp(0.0), a=0.1, p=2.0, q=0.0,
                             sample=sample)


class TestRandomDraws:
    @pytest.mark.parametrize("d, N", [(6, 10), (3, 6), (1, 0)])
    def test_cli_draw_has_the_bits_of_the_two_draw_product(self, d, N):
        # one (2, K) draw, multiplied plane by plane, against (a + 1j*b) * damp
        model = FiniteGaussianModel(d=d, N=N)
        got_rng, want_rng = np.random.default_rng(d), np.random.default_rng(d)
        damp = cli._damping(model)
        for role in (chaos.ROLE_TEST, chaos.ROLE_DISTRIBUTION, chaos.ROLE_TEST):
            got = cli._random_vector(model, got_rng, role, damp)
            want = random_vector(model, want_rng, role)
            assert got.role == role
            assert same_bits(got.coeffs, want.coeffs)
        # the generator is left where two draws of K leave it
        assert got_rng.standard_normal() == want_rng.standard_normal()


class TestObjectMemos:
    def test_ell_sequence_of_a_new_weight_is_never_a_dead_ones(self):
        # each weight dies before the next is built, so its address (and a
        # memo keyed on it) is free for reuse by a weight of another beta
        want = {
            beta: [legendre_transform(power_exp(beta), float(n)).log_value
                   for n in range(7)]
            for beta in (0.0, 0.9)
        }
        for i in range(200):
            beta = (0.0, 0.9)[i % 2]
            got = chaos.log_ell_sequence(power_exp(beta), 6)
            assert got.tolist() == want[beta]

    def test_monomials_of_a_new_model_match_its_coherent_states(self):
        rng = np.random.default_rng(11)
        xis = gaussian_sample(rng, 2, 2)

        def check(N):
            # the model dies on return, before the next one is built
            model = FiniteGaussianModel(d=2, N=N)
            Phi = random_vector(model, rng, chaos.ROLE_DISTRIBUTION)
            got = s_transform_many(Phi, xis)
            want = [pairing(Phi, coherent_state(model, xi)) for xi in xis]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

        for i in range(40):
            check((3, 5)[i % 2])
