import math
import tracemalloc

import numpy as np
import pytest

import mode_products_oracle as oracle
from wncalc import chaos
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

    def test_role_checks(self, model):
        rng = np.random.default_rng(2)
        phi = random_vector(model, rng)
        with pytest.raises(ValueError):
            pairing(phi, phi)  # first argument must be a distribution
        with pytest.raises(ValueError):
            chaos.test_norm(phi.as_distribution(), power_exp(0.0), 1.0)


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

    def test_gaussian_orthogonality_of_wick_powers(self, model):
        # E[He_n(Z) He_m(Z)] = n! delta_nm: Monte Carlo sanity at loose tol
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((200_000, 3))
        p2 = chaos_vector(model, {(2, 0, 0): 1.0})
        p3 = chaos_vector(model, {(3, 0, 0): 1.0})
        v2, v3 = point_eval(p2, Z), point_eval(p3, Z)
        assert np.mean(v2 * v3) == pytest.approx(0.0, abs=0.05)
        assert np.mean(v2 * v2) == pytest.approx(2.0, rel=0.05)

    def test_sample_of_the_wrong_width_is_rejected(self, model):
        phi = chaos_vector(model, {(1, 1, 0): 1.0})
        for width in (2, 4):
            with pytest.raises(ValueError, match=f"must have 3 entries, got {width}"):
                point_eval(phi, np.zeros((5, width)))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


class TestModeProducts:
    """One helper forms every product over modes, with the bits of the three
    expressions it replaced (kept in ``mode_products_oracle``)."""

    @pytest.mark.parametrize("d, N, probes", [(4, 6, 64), (6, 10, 128), (1, 5, 3),
                                              (2, 20, 2), (3, 4, 1), (3, 0, 5)])
    def test_monomials_and_coherent_states_match_the_oracle(self, d, N, probes):
        model = FiniteGaussianModel(d=d, N=N)
        rng = np.random.default_rng(d * 100 + N)
        xis = gaussian_sample(rng, math.ceil(probes / 4), d)[:probes]
        assert same_bits(chaos._monomials(model, xis), oracle.monomials(model, xis))
        for xi in xis[:3]:
            assert same_bits(coherent_state(model, xi).coeffs,
                             oracle.coherent_coeffs(model, xi))

    def test_point_eval_over_several_blocks_matches_the_oracle(self):
        model = FiniteGaussianModel(d=4, N=6)
        rows_per_block = chaos._BLOCK_BYTES // (model.n_coeffs * model.d * 8)
        X = 2.0 * np.random.default_rng(8).standard_normal((3 * rows_per_block + 7, 4))
        phi = random_vector(model, np.random.default_rng(9))
        P = oracle.hermite_products(model, X)
        assert same_bits(chaos._mode_products(model, chaos._hermite_table(X, model.N)), P)
        want = P @ (np.exp(model.log_mult) * phi.coeffs)
        assert same_bits(point_eval(phi, X), want)

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
        # sum (2j+2)^-2 = zeta(2)/4 = pi^2/24
        assert hs_norm_inclusion(2.0, 0.0) == pytest.approx(math.pi**2 / 24, abs=1e-11)
        with pytest.raises(ArithmeticError):
            hs_norm_inclusion(1.0, 0.0)

    def test_premise_error_when_contraction_fails(self, model):
        rng = np.random.default_rng(7)
        phi = random_vector(model, rng)
        sample = gaussian_sample(rng, 4, 3)
        with pytest.raises(PremiseError):
            check_test_bound(phi, power_exp(0.0), a=2.0, p=2.0, q=0.0, sample=sample)

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
