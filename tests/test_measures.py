import math
import re
import time
import warnings

import numpy as np
import pytest
from scipy import special

import scalar_kernels
from wncalc import measures
from wncalc.measures import (
    MeasureModel,
    PositiveDefiniteReport,
    SamplerValidationError,
    check_positive_definite,
    integrability_check,
    ls_inclusion_check,
    mittag_leffler,
    poisson_char,
    sample,
    validate_sampler,
)
from wncalc.weights import CONSISTENT, VIOLATED, from_callable, power_exp, sqrt_log_weight

KINDS = [measures.KIND_GAUSSIAN, measures.KIND_GREY, measures.KIND_POISSON]


def spoiled_sampler(true_sample):
    """``true_sample`` with an inf in every 1 000th draw and a NaN in the next."""
    def spoiled(model, n, rng=None):
        x = true_sample(model, n, rng)
        x[::1000, 0] = math.inf
        x[1::1000, 1] = math.nan
        return x
    return spoiled


def scaled_sampler(true_sample):
    """``true_sample`` off by a scale factor of 1.5: a broken sampler."""
    return lambda model, n, rng=None: 1.5 * true_sample(model, n, rng)


def reference_gram_report(model, pts, tol: float = 1e-8) -> PositiveDefiniteReport:
    """The Gram report of the frozen scalar functional, one entry at a time."""
    m = len(pts)
    G = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            G[j, k] = scalar_kernels.char_fn(model, pts[j] - pts[k])
    min_eig = float(np.linalg.eigvalsh(G).min())
    return PositiveDefiniteReport(verdict=CONSISTENT if min_eig >= -tol else VIOLATED,
                                  min_eigenvalue=min_eig, n_points=m, tol=tol)


class TestMittagLeffler:
    def test_lambda_one_is_the_exponential(self):
        for t in (0.0, 0.5, 3.0, 20.0):
            assert mittag_leffler(1.0, t) == pytest.approx(math.exp(-t), rel=1e-12)

    def test_lambda_half_closed_form(self):
        # E_{1/2}(-t) = e^{t^2} erfc(t)
        for t in (0.1, 1.0, 4.0, 10.0):
            want = math.exp(t * t) * special.erfc(t)
            assert mittag_leffler(0.5, t) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.02, 0.3, 0.7, 0.9])  # 0.9 takes out the poles
    def test_tiny_t_is_one_minus_the_first_term(self, lam):
        # the trapezoid ends where (t e^v)^(1/lam) = 45, so its e^v would
        # overflow at a tiny t without the cap at log 1e17 (pyproject makes
        # the RuntimeWarning an error)
        ts = [5e-324, 1e-300, 1e-12]
        got = mittag_leffler(lam, np.array(ts)).tolist()
        assert got == [mittag_leffler(lam, t) for t in ts]
        for t, value in zip(ts, got):
            assert math.isfinite(value)
            assert abs(value - (1.0 - t / math.gamma(1.0 + lam))) <= 4.5e-16, t

    def test_values_are_probabilistic(self):
        ts = np.linspace(0.0, 30.0, 40)
        for lam in (0.3, 0.7):
            vals = [mittag_leffler(lam, float(t)) for t in ts]
            assert all(0.0 < v <= 1.0 for v in vals)
            assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing

    def test_range_and_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 51.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, -1.0)

    def test_nan_argument_is_rejected(self):
        # NaN passes a `t < 0` test, and gives the trapezoid no node count
        with pytest.raises(ValueError, match="t must be >= 0"):
            mittag_leffler(0.5, math.nan)

    def test_a_tiny_lambda_is_refused_before_any_node(self):
        # about 325 / lam nodes per t: lam = 1e-9 did not return within 20 s
        t0 = time.perf_counter()
        for t in (2.0, 0.0, np.array([0.5, 2.0])):
            with pytest.raises(ValueError, match=r"^lambda=1e-09 would take more than 1e\+08"):
                mittag_leffler(1e-9, t)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("lam", [1e-4, 0.02])
    def test_small_lambdas_above_the_floor_keep_their_bits(self, lam):
        # the refusal reads lam alone, so a lam above it takes the trapezoid as before
        ts = [1e-9, 0.5, 2.0, 50.0]
        want = [measures._ml_trapezoid(lam, t) for t in ts]
        assert mittag_leffler(lam, np.array(ts)).tolist() == want


class TestMittagLefflerArray:
    """One call on an array of t evaluates each t on its own."""

    def test_array_equals_per_element_calls(self):
        ts = np.array([2.5, 0.0, 1e-3, 4.0, 2.5, 0.7])
        got = mittag_leffler(0.35, ts)
        want = [mittag_leffler(0.35, t) for t in ts.tolist()]
        assert all(type(v) is float for v in want)
        assert got.tolist() == want

    @pytest.mark.parametrize("bad, message", [(math.nan, "t must be >= 0"),
                                              (-1.0, "t must be >= 0"),
                                              (51.0, "t=51.0 beyond configured range 50.0")])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_bad_element_anywhere_is_refused(self, bad, message, at):
        ts = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
        ts[at] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mittag_leffler(0.5, ts)


class TestCharacteristicFunctionals:
    def test_grey_lambda_one_is_gaussian_with_doubled_variance(self):
        xi = np.array([0.3, -0.4])
        assert MeasureModel(kind="grey", d=2, lam=1.0).char_fn(xi[None])[0] == pytest.approx(
            math.exp(-float(np.sum(xi * xi))), rel=1e-12
        )

    def test_poisson_char_single_mode(self):
        val = poisson_char(np.array([0.7]), intensity=2.0)
        want = np.exp(2.0 * (np.exp(0.7j) - 1.0))
        assert val == pytest.approx(complex(want), rel=1e-12)

    def test_positive_definite_gaussian(self):
        model = MeasureModel(kind="gaussian", d=4)
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 4)) * 0.5
        rep = check_positive_definite(model.char_fn, pts)
        assert rep.verdict == "consistent"
        assert rep.min_eigenvalue >= -rep.tol

    def test_non_positive_definite_function_is_flagged(self):
        def fake_char(xi):
            return 1.0 - np.sum(xi * xi, axis=1)  # not a characteristic function

        rng = np.random.default_rng(1)
        pts = rng.standard_normal((8, 2)) * 2.0
        rep = check_positive_definite(fake_char, pts)
        assert rep.verdict == "violated"

    @pytest.mark.parametrize("kind", ["gaussian", "grey"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_are_rejected(self, kind, bad):
        # not read as a Gram matrix that is "not Hermitian"
        model = MeasureModel(kind=kind, d=2, lam=0.5)
        pts = np.array([[0.0, 0.1], [bad, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError, match="^points must be finite$"):
            check_positive_definite(model.char_fn, pts)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d", [1, 2, 6, 8, 9, 20])  # d >= 8: numpy's unrolled pairwise sum
    def test_char_fn_matches_the_scalar_kernel(self, kind, d):
        # bit for bit, but for the Gaussian one's exp(-t/2): np.exp against math.exp,
        # within 1 ulp (eps relative), the same t on both sides
        model = MeasureModel(kind=kind, d=d, lam=0.6, intensity=1.7)
        xi = np.random.default_rng(d).standard_normal((12, d)) / math.sqrt(d)
        xi[3], xi[5], xi[7] = 0.0, -xi[2], xi[1]  # t = 0 and repeated values of t
        got = model.char_fn(xi)
        want = np.array([scalar_kernels.char_fn(model, row) for row in xi])
        assert got.dtype == want.dtype and got.shape == (12,)
        if kind == measures.KIND_GAUSSIAN:
            assert (np.abs(got - want) <= np.finfo(float).eps * np.abs(want)).all()
        else:
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("kind", KINDS)
    def test_gram_report_equals_the_per_entry_gram(self, kind):
        model = MeasureModel(kind=kind, d=6, lam=0.5, intensity=2.0)
        pts = np.random.default_rng(4).standard_normal((9, 6)) / math.sqrt(6)
        assert check_positive_definite(model.char_fn, pts) == reference_gram_report(model, pts)

    @pytest.mark.parametrize("seed", [1665745142, 845780591, 1085528755, 399234591,
                                      1671218167, 459072302, 7, 0])
    def test_half_grey_gram_of_verify_all_against_erfcx(self, seed):
        # verify-all's Gram: E_1/2(-t) = erfcx(t), a closed form in scipy
        model = MeasureModel(kind="grey", d=6, lam=0.5, sampler_seed=seed)
        pts = np.random.default_rng(seed).standard_normal((8, 6)) / math.sqrt(6)
        t = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        want = float(np.linalg.eigvalsh(special.erfcx(t)).min())
        got = check_positive_definite(model.char_fn, pts).min_eigenvalue
        assert abs(got - want) <= 1e-14, got - want


class TestGreyMemo:
    """A grey Gram matrix sums L_lam once per distinct t = |xi_j - xi_k|^2."""

    @staticmethod
    def count_calls(monkeypatch) -> list:
        calls = []
        true_ml = measures.mittag_leffler

        def counting(lam, t):
            calls.append((lam, t.tolist()))
            return true_ml(lam, t)

        monkeypatch.setattr(measures, "mittag_leffler", counting)
        return calls

    def test_gram_check_sums_each_distinct_t_once(self, monkeypatch):
        pts = np.random.default_rng(0).standard_normal((8, 6)) / math.sqrt(6)
        model = MeasureModel(kind="grey", d=6, lam=0.5)
        want = reference_gram_report(model, pts)
        calls = self.count_calls(monkeypatch)
        got = check_positive_definite(model.char_fn, pts)
        # one array call, holding t = 0 of the diagonal and one t per pair j < k,
        # against 64 Gram entries
        [(lam, ts)] = calls
        assert lam == 0.5 and len(ts) == len(set(ts)) == 1 + 8 * 7 // 2
        assert got == want


class TestSamplers:
    def test_sampling_is_deterministic_in_the_seed(self):
        m = MeasureModel(kind="grey", d=3, lam=0.6, sampler_seed=5)
        assert np.array_equal(sample(m, 100), sample(m, 100))

    def test_stable_laplace_transform(self):
        # one-sided stable S: E[exp(-u S)] = exp(-u^lam)
        rng = np.random.default_rng(2)
        lam = 0.5
        S = measures._stable_one_sided(lam, 200_000, rng)
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(-u * S)
            se = float(np.std(emp) / math.sqrt(len(S)))
            assert float(np.mean(emp)) == pytest.approx(
                math.exp(-(u**lam)), abs=4 * se
            )

    def test_grey_sampler_validates_against_its_functional(self):
        m = MeasureModel(kind="grey", d=4, lam=0.6, sampler_seed=3)
        rep = validate_sampler(m, n=50_000)
        assert rep["worst_sigma"] <= 4.0

    def test_gate_is_sidak_for_the_largest_of_all_scores(self):
        # 2 N_PROBES two-sided z-tests at Z_GATE raise a false alarm as often
        # as one SIGMA_GATE test does
        per_score = special.erfc(measures.Z_GATE / math.sqrt(2.0))
        family = -math.expm1(2 * measures.N_PROBES * math.log1p(-per_score))
        assert family == pytest.approx(special.erfc(measures.SIGMA_GATE / math.sqrt(2.0)),
                                       rel=1e-9)
        assert measures.Z_GATE == pytest.approx(4.6135, abs=1e-4)

    @pytest.mark.parametrize("seed", [572906075, 665419025, 1138478386, 148829985,
                                      2145116692, 2134949518, 1567902331])
    def test_correct_sampler_above_four_sigma_passes(self, seed):
        # validate_sampler's own draws for seed S give a largest |z| in
        # (4, Z_GATE], which failed the uncorrected 4-sigma gate; these are no
        # longer the draws of `verify-all --seed S`, whose gate reads its batches
        m = MeasureModel(kind="grey", d=6, lam=0.5, sampler_seed=seed)
        assert 4.0 < validate_sampler(m, n=20_000)["worst_sigma"] <= measures.Z_GATE

    def test_deviation_beyond_the_gate_fails(self):
        m = MeasureModel(kind="grey", d=6, lam=0.5, sampler_seed=1474054166)
        with pytest.raises(SamplerValidationError,
                           match=r"worst deviation 4\.87 sigma > 4\.61$"):
            validate_sampler(m, n=20_000)

    def test_validation_catches_a_broken_sampler(self, monkeypatch):
        # a sampler off by a scale factor must fail the gate
        m = MeasureModel(kind="grey", d=4, lam=0.6, sampler_seed=4)
        monkeypatch.setattr(measures, "sample", scaled_sampler(measures.sample))
        with pytest.raises(SamplerValidationError):
            validate_sampler(m, n=50_000)

    def test_validation_rejects_non_finite_draws(self, monkeypatch):
        # inf and NaN draws give NaN z-scores, which must not let the
        # sampler pass the gate
        m = MeasureModel(kind="grey", d=6, lam=0.6, sampler_seed=0)
        monkeypatch.setattr(measures, "sample", spoiled_sampler(measures.sample))
        with pytest.raises(SamplerValidationError,
                           match="200 of 100000 draws are not finite"):
            validate_sampler(m, n=100_000)

    @pytest.mark.parametrize("lam", [0.984, 0.99, 0.995, 0.999])
    def test_kanter_draws_near_one_are_finite_and_stable(self, lam):
        n = 200_000
        S = measures._stable_one_sided(lam, n, np.random.default_rng(3))
        assert np.all((S > 0.0) & (S < math.inf))
        # the direct formula, on the same U and E
        rng = np.random.default_rng(3)
        U, E = rng.uniform(0.0, math.pi, n), rng.exponential(1.0, n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = (np.sin((1.0 - lam) * U) * np.sin(lam * U) ** (lam / (1.0 - lam))
                 / np.sin(U) ** (1.0 / (1.0 - lam)))
            direct = (a / E) ** ((1.0 - lam) / lam)
        good = (direct > 0.0) & (direct < math.inf)
        assert not good.all()
        assert S[good].tobytes() == direct[good].tobytes()
        # the redone rows follow the law too: E[exp(-u S)] = exp(-u^lam)
        for u in (0.5, 1.0, 2.0):
            emp = np.exp(-u * S)
            se = float(np.std(emp) / math.sqrt(n))
            assert float(np.mean(emp)) == pytest.approx(math.exp(-(u**lam)), abs=4 * se)


class TestIntegrability:
    def test_trivial_weight_converges_to_one(self):
        m = MeasureModel(kind="gaussian", d=5, sampler_seed=6)
        u1 = from_callable("one", lambda r: 0.0, r_max=1e30)
        rep = integrability_check(m, u1, p=1.0, n=20_000)
        assert rep.verdict == "converged"
        assert rep.estimate == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_exp_x_squared_diverges(self):
        m = MeasureModel(kind="gaussian", d=1, sampler_seed=7)
        u_bad = from_callable("exp2r", lambda r: 2.0 * r, r_max=1e30)
        rep = integrability_check(m, u_bad, p=0.0, n=50_000)
        assert rep.verdict == "diverging"

    def test_poisson_with_admissible_weight_converges(self):
        m = MeasureModel(kind="poisson", d=10, intensity=1.0, sampler_seed=8)
        rep = integrability_check(m, sqrt_log_weight(2), p=1.0, n=50_000)
        assert rep.verdict == "converged"

    @pytest.mark.parametrize("p", [0.75, 1.0])
    def test_gaussian_estimate_matches_the_closed_form(self, p):
        # u(r)^(1/2) = e^(r/2) with r = sum w_j x_j^2, so E = prod (1 - w_j)^(-1/2);
        # the tail index 2^(2p) exceeds 2 here, so the variance is finite
        m = MeasureModel(kind="gaussian", d=20)
        rep = integrability_check(m, power_exp(0.0), p=p, n=100_000)
        w = measures.oscillator_eigenvalues(20) ** (-2.0 * p)
        exact = float(np.prod((1.0 - w) ** -0.5))
        assert rep.verdict == "converged"
        assert abs(rep.estimate - exact) <= 4.0 * rep.std_error

    def test_gaussian_infinite_integral_diverges(self):
        # at p = 0 every w_j is 1 and the closed form is infinite
        m = MeasureModel(kind="gaussian", d=20)
        rep = integrability_check(m, power_exp(0.0), p=0.0, n=100_000)
        assert rep.verdict == "diverging"

    def test_threaded_run_matches_serial_bytes(self):
        m = MeasureModel(kind="grey", d=6, lam=0.5, sampler_seed=9)
        u = power_exp(0.5)
        r1 = integrability_check(m, u, p=1.0, n=20_000, threads=1)
        r8 = integrability_check(m, u, p=1.0, n=20_000, threads=8)
        assert r1.batch_means == r8.batch_means
        assert r1.estimate == r8.estimate

    @pytest.mark.parametrize("n", [0, 7])
    def test_fewer_samples_than_batches_are_refused_before_any_draw(self, n, monkeypatch):
        from wncalc.chaos import FiniteGaussianModel, chaos_vector

        draws = []
        monkeypatch.setattr(measures, "sample", lambda *a: draws.append(a))
        m = MeasureModel(kind="gaussian", d=4, sampler_seed=0)
        message = f"^need at least N_BATCHES=8 samples, one per batch, got {n}$"
        with pytest.raises(ValueError, match=message):
            integrability_check(m, power_exp(0.5), p=1.0, n=n)
        with pytest.raises(ValueError, match=message):
            ls_inclusion_check(m, chaos_vector(FiniteGaussianModel(d=4, N=1), {(0, 0, 0, 0): 1.0}),
                               s_list=[1.0], n=n)
        assert draws == []

    def test_one_sample_per_batch_is_graded(self):
        m = MeasureModel(kind="gaussian", d=4, sampler_seed=0)
        rep = integrability_check(m, from_callable("one", lambda r: 0.0, r_max=1e30), p=1.0,
                                  n=measures.N_BATCHES)
        assert rep.batch_means == [1.0] * measures.N_BATCHES

    def test_batch_verdict_grading(self):
        assert measures._batch_verdict(np.ones(8))[0] == "converged"
        assert measures._batch_verdict(np.arange(1.0, 9.0))[0] == "diverging"
        wobble = np.array([1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1])
        assert measures._batch_verdict(wobble)[0] == "inconclusive"


def run_grey_check(check, n, threads=1, u=None):
    """A grey integrability or moment check on n draws; u defaults to power_exp(0.5)."""
    from wncalc.chaos import FiniteGaussianModel, chaos_vector

    m = MeasureModel(kind="grey", d=3, lam=0.6, sampler_seed=0)
    if check == "integrability":
        return integrability_check(m, u or power_exp(0.5), p=1.0, n=n, threads=threads)
    phi = chaos_vector(FiniteGaussianModel(d=3, N=2), {(1, 0, 0): 1.0, (0, 0, 0): 2.0})
    return ls_inclusion_check(m, phi, s_list=[1.0, 2.0], n=n, threads=threads)


class TestGateOnTheBatchDraws:
    """A grey check grades its sampler on the draws its estimate rests on."""

    @pytest.mark.parametrize("check", ["integrability", "moments"])
    def test_each_draw_is_made_once(self, check, monkeypatch):
        rows = []
        true_sample = measures.sample

        def counted(model, n, rng=None):
            rows.append(n)
            return true_sample(model, n, rng)

        monkeypatch.setattr(measures, "sample", counted)
        run_grey_check(check, n=100_000)
        assert rows == [12_500] * measures.N_BATCHES

    def test_non_finite_draws_are_refused_before_stat_sees_them(self, monkeypatch):
        # each 12 500-row batch holds 13 inf and 13 NaN rows; a NaN radius
        # reaching log_eval would raise DomainError instead
        seen = []
        u = from_callable("seen", lambda r: seen.append(r) or 0.0, r_max=1e30)
        monkeypatch.setattr(measures, "sample", spoiled_sampler(measures.sample))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SamplerValidationError,
                               match="^grey sampler: 208 of 100000 draws are not finite$"):
                run_grey_check("integrability", n=100_000, u=u)
        assert seen == []

    def test_a_broken_sampler_is_refused(self, monkeypatch):
        # TestMomentCheck has the moment check's case
        monkeypatch.setattr(measures, "sample", scaled_sampler(measures.sample))
        with pytest.raises(SamplerValidationError,
                           match=r"^grey sampler: worst deviation \d+\.\d\d sigma > 4\.61$"):
            run_grey_check("integrability", n=40_000)

    def test_threads_give_the_same_means_and_the_same_error(self, monkeypatch):
        # the batch sums are added in batch order, whichever thread made them
        means = {t: run_grey_check("integrability", n=20_000, threads=t).batch_means
                 for t in (1, 2, 8)}
        assert means[1] == means[2] == means[8]
        monkeypatch.setattr(measures, "sample", scaled_sampler(measures.sample))
        errors = set()
        for t in (1, 2, 8):
            with pytest.raises(SamplerValidationError) as exc:
                run_grey_check("integrability", n=20_000, threads=t)
            errors.add(str(exc.value))
        assert len(errors) == 1


class TestMomentCheck:
    def test_bounded_observable_has_finite_moments(self):
        from wncalc.chaos import FiniteGaussianModel, chaos_vector

        model = FiniteGaussianModel(d=3, N=2)
        phi = chaos_vector(model, {(1, 0, 0): 1.0, (0, 0, 0): 2.0})
        m = MeasureModel(kind="gaussian", d=3, sampler_seed=10)
        reports = ls_inclusion_check(m, phi, s_list=[1.0, 2.0], n=40_000)
        assert [r.verdict for r in reports] == ["converged", "converged"]
        # E[|2 + Z|^2] = 4 + 1 for standard normal Z
        assert reports[1].estimate == pytest.approx(5.0, rel=0.05)

    def test_grey_moments_pass_the_sampler_gate(self, monkeypatch):
        from wncalc.chaos import FiniteGaussianModel, chaos_vector

        phi = chaos_vector(FiniteGaussianModel(d=3, N=2), {(1, 0, 0): 1.0, (0, 0, 0): 2.0})
        m = MeasureModel(kind="grey", d=3, lam=0.6, sampler_seed=10)
        monkeypatch.setattr(measures, "sample", scaled_sampler(measures.sample))
        with pytest.raises(SamplerValidationError):
            ls_inclusion_check(m, phi, s_list=[1.0, 2.0], n=40_000)
