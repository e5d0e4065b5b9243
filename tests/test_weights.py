import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_kernels
from wncalc.legendre import dual_weight
from wncalc.weights import (
    CONSISTENT,
    VIOLATED,
    DomainError,
    PrecisionError,
    WeightFunction,
    bell_weight,
    check_log_x2_convex,
    classify,
    custom_table,
    from_callable,
    from_config,
    func_equivalent,
    log_k,
    power_exp,
    sqrt_log_weight,
)


_TABLE = [(0, 0.3), (0.5, 1.0), (2.0, 1.5), (10.0, 4.0)]


def _kinked(r):
    if r < 4.0:  # a Python branch: the kernel cannot take an array
        return r
    return 4.0 + math.log(r / 4.0)


def _radii(u, rng):
    """0, a log-spaced spread from 1e-8 (below a table's first abscissa) and a
    uniform one up to r_max, and a point past r_max within the 1e-9 allowance."""
    r_max = u.r_max
    return np.array([0.0, *np.geomspace(1e-8, r_max, 200), *rng.uniform(0.0, r_max, 200),
                     r_max, r_max * (1.0 + 5e-10)])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestArrayContract:
    """A 1-D array argument gives, element for element, the bits of the scalar
    call on that element as a Python float, and the first bad element raises."""

    @pytest.mark.parametrize("make", [
        lambda: power_exp(0.7),
        lambda: power_exp(0.0, r_max=100.0),
        lambda: bell_weight(1),
        lambda: bell_weight(2),
        lambda: bell_weight(3),
        lambda: sqrt_log_weight(2),
        lambda: sqrt_log_weight(3),
        lambda: custom_table(_TABLE),
        lambda: from_callable("kinked", _kinked, r_max=50.0),
        lambda: dual_weight(power_exp(0.3)),
    ], ids=["power_exp(0.7)", "power_exp(0)", "bell(1)", "bell(2)", "bell(3)",
            "sqrt_log(2)", "sqrt_log(3)", "custom_table", "kinked", "u*"])
    def test_array_equals_the_scalar_calls_bit_for_bit(self, make):
        u = make()
        rs = _radii(u, np.random.default_rng(5))
        got = u.log_eval(rs)
        assert got.dtype == np.float64 and got.shape == rs.shape
        assert np.array_equal(_bits(got), _bits([u.log_eval(r) for r in rs.tolist()]))

    @pytest.mark.parametrize("u, rs, bad, error", [
        (power_exp(0.0, r_max=100.0), [1.0, -2.0, 200.0, -3.0], -2.0, DomainError),
        (power_exp(0.0, r_max=100.0), [1.0, 100.5, -1.0], 100.5, DomainError),
        (bell_weight(3, r_max=7.0), [1.0, 6.6, -1.0, 6.9], 6.6, PrecisionError),
        (from_callable("pole", lambda r: 1.0 / (r - 2.0)), [1.0, 2.0, 3.0], 2.0,
         ZeroDivisionError),
    ], ids=["negative", "past r_max", "past a double", "kernel error"])
    def test_first_bad_element_raises_the_scalar_message(self, u, rs, bad, error):
        with pytest.raises(error) as want:
            u.log_eval(bad)
        with pytest.raises(error) as got:
            u.log_eval(np.array(rs))
        assert str(got.value) == str(want.value)

    @staticmethod
    def outcome(call):
        """The bits of call(), or the type and message of what it raises."""
        try:
            return _bits(call()).tobytes()
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("make", [
        lambda: power_exp(0.3, r_max=100.0),
        lambda: bell_weight(2),
        lambda: sqrt_log_weight(2),
        lambda: custom_table(_TABLE),
        lambda: from_callable("kinked", _kinked, r_max=50.0),
        lambda: dual_weight(power_exp(0.3)),
    ], ids=["power_exp(0.3)", "bell(2)", "sqrt_log(2)", "custom_table", "kinked", "u*"])
    def test_each_kind_of_element_alone_and_among_in_range_ones(self, make):
        # with or without in-range radii around it, each kind of element gives
        # the bits or the error of the scalar calls
        u = make()
        inside = np.geomspace(u.r_max * 1e-6, u.r_max * 0.999, 9)
        kinds = {"in range": [], "r = 0": [0.0, -0.0], "r = r_max": [u.r_max],
                 "past r_max within 1e-9": [u.r_max * (1.0 + 5e-10)], "NaN": [math.nan],
                 "negative": [-0.5]}
        for kind, extra in kinds.items():
            for rs in (np.array(extra, dtype=float), np.concatenate((inside, extra))):
                want = self.outcome(lambda: [u.log_eval(r) for r in rs.tolist()])
                assert self.outcome(lambda: u.log_eval(rs)) == want, kind
        want = self.outcome(lambda: u.log_eval(-0.5))
        assert want == (DomainError, f"{u.name}: r=-0.5 is negative")
        # every family refuses a NaN: bell(2) used to blame overflow, the others returned NaN
        for r in (math.nan, np.concatenate((inside, [math.nan], inside))):
            want = (DomainError, f"{u.name}: r=nan is not a number")
            assert self.outcome(lambda: u.log_eval(r)) == want

    @pytest.mark.parametrize("rs", [
        np.array([0.5, 3.0, 10.0]),
        np.array([0.0, 3.0]),
        np.array([0.5, 10.0 * (1.0 + 5e-10)]),
        np.array([0.5, math.nan, 3.0]),
        np.array([1, 3, 10]),
    ], ids=["in range", "r = 0", "past r_max within 1e-9", "NaN", "int dtype"])
    def test_every_array_is_one_log_eval_call(self, monkeypatch, rs):
        calls, kernel_calls = [], []
        log_eval = WeightFunction.log_eval
        monkeypatch.setattr(WeightFunction, "log_eval",
                            lambda u, r: calls.append(r) or log_eval(u, r))
        w = power_exp(0.3, r_max=10.0)
        u = dataclasses.replace(w, _log_eval=lambda r: kernel_calls.append(r) or w._log_eval(r))
        if np.isnan(rs).any():  # the radii before the NaN reach the kernel, then it raises
            with pytest.raises(DomainError, match=r"r=nan is not a number$"):
                u.log_eval(rs)
            assert kernel_calls[0].tolist() == rs[:np.argmax(np.isnan(rs))].tolist()
        else:
            u.log_eval(rs)
        assert len(calls) == 1 and len(kernel_calls) == 1

    def test_a_float64_array_reaches_the_kernel_uncopied(self):
        seen = []
        w = power_exp(0.3, r_max=10.0)
        u = dataclasses.replace(w, _log_eval=lambda r: seen.append(r) or w._log_eval(r))
        rs = np.array([0.5, 3.0, 10.0])
        u.log_eval(rs)
        assert seen[0] is rs

    @pytest.mark.parametrize("make", [lambda: power_exp(0.3, r_max=10.0),
                                      lambda: custom_table(_TABLE)],
                             ids=["power_exp(0.3)", "custom_table"])
    @pytest.mark.parametrize("r", [2.5, 3, np.float64(2.5), 0, 10.0 * (1.0 + 5e-10)],
                             ids=["float", "int", "np.float64", "int 0", "past r_max within 1e-9"])
    def test_a_number_gives_the_bits_of_its_one_element_array(self, make, r):
        u = make()
        got = u.log_eval(r)
        assert type(got) is float
        assert _bits([got]).tobytes() == _bits(u.log_eval(np.array([r], dtype=float))).tobytes()

    def test_the_radii_before_a_domain_error_reach_the_kernel_first(self):
        seen = []
        u = from_callable("recording", lambda r: seen.append(r) or r, r_max=10.0)
        with pytest.raises(DomainError, match=r"^recording: r=-1\.0 is negative$"):
            u.log_eval(np.array([0.5, 0.0, 3.0, -1.0, 4.0]))
        assert seen == [0.5, 3.0]
        with pytest.raises(DomainError, match=r"^recording: r=-1 is negative$"):
            u.log_eval(np.array([2, -1]))  # an int element is named as the int it is

    def test_kernel_sees_only_python_floats_in_range(self):
        seen = []

        def kernel(r):
            seen.append(r)
            return r

        u = from_callable("recording", kernel, r_max=10.0)
        got = u.log_eval(np.array([0.0, 0.5, 3.0, 10.0, 10.0 * (1.0 + 1e-10)]))
        # u(0) comes from u_at_zero, and r_max noise is clamped to r_max exactly
        assert seen == [0.5, 3.0, 10.0, 10.0] and got.tolist() == [0.0, 0.5, 3.0, 10.0, 10.0]
        u.log_eval(np.geomspace(1.0, 10.0, 5, dtype=np.float32))
        assert {type(r) for r in seen} == {float}

    def test_empty_array_gives_an_empty_array(self):
        got = power_exp(0.5).log_eval(np.array([]))
        assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("r", [np.array(2.0), np.ones((2, 3))], ids=["0-D", "2-D"])
    def test_array_of_another_rank_is_rejected_in_one_line(self, r):
        # one line naming the contract, not an error from inside the kernel
        want = rf"^power_exp\(beta=0.5\): log_eval takes a 1-D array, got {r.ndim}-D$"
        with pytest.raises(ValueError, match=want):
            power_exp(0.5).log_eval(r)


class TestFloatTower:
    """The Bell kernel iterates exp in floats; it must equal exp nested by hand bit for bit."""

    def test_bell_two_matches_the_tower_on_its_whole_range(self):
        u = bell_weight(2)
        rng = np.random.default_rng(11)
        rs = [*np.linspace(0.0, 700.0, 10_001).tolist(), *rng.uniform(0.0, 700.0, 2_000).tolist(),
              700.0, 700.0 * (1.0 + 5e-10)]  # the last one is clamped to r_max
        for r in rs:
            assert u.log_eval(r) == math.exp(min(r, u.r_max)) - 1.0, r

    def test_bell_three_matches_the_tower_on_its_whole_range(self):
        u = bell_weight(3)
        for r in np.linspace(0.0, 6.0, 10_001).tolist():
            assert u.log_eval(r) == math.exp(math.exp(r)) - math.exp(math.exp(0.0)), r

    def test_values_past_a_double_still_raise(self):
        with pytest.raises(PrecisionError, match=r"^value exp\^1\("):
            bell_weight(3, r_max=7.0).log_eval(6.6)
        with pytest.raises(PrecisionError, match=r"^value exp\^1\("):
            bell_weight(4).log_eval(3.0)
        with pytest.raises(PrecisionError, match=r"^value exp\^9\("):
            bell_weight(14)  # exp_13(0) leaves double range at its base


def _u_star(beta):
    """A u*, the scalar u* kernel on its knots, coefficients and linear part, and a
    radius below the grid's lower end 1e-8, where u* is linear in r."""
    ustar = dual_weight(power_exp(beta))
    return ustar, scalar_kernels.Hermite(*ustar._log_eval.args), 1e-20


# (weight, its frozen scalar kernel, the low end of the log-uniform test radii)
KERNELS = {
    "power_exp(0)": lambda: (power_exp(0.0), scalar_kernels.power_exp(0.0), 1e-12),
    "power_exp(0.3)": lambda: (power_exp(0.3), scalar_kernels.power_exp(0.3), 1e-12),
    "power_exp(0.7)": lambda: (power_exp(0.7), scalar_kernels.power_exp(0.7), 1e-12),
    "bell(1)": lambda: (bell_weight(1), scalar_kernels.bell(1), 1e-12),
    "bell(2)": lambda: (bell_weight(2), scalar_kernels.bell(2), 1e-12),
    "bell(3)": lambda: (bell_weight(3), scalar_kernels.bell(3), 1e-12),
    "sqrt_log(2)": lambda: (sqrt_log_weight(2), scalar_kernels.sqrt_log(2), 1e-12),
    "sqrt_log(3)": lambda: (sqrt_log_weight(3), scalar_kernels.sqrt_log(3), 1e-12),
    # below the first positive abscissa 0.5 the table is linear in r
    "custom_table": lambda: (custom_table(_TABLE), scalar_kernels.custom_table(_TABLE), 1e-6),
    "u*": lambda: _u_star(0.3),
    # log u* <= 0 at the first knots: the linear part runs through 27 of them
    "u* with a linear part": lambda: _u_star(0.55),
}


class TestKernelsMatchTheFrozenScalarKernels:
    """Each array kernel gives the bits of the scalar kernel it replaced, kept
    verbatim in ``scalar_kernels``, on 100 001 radii in (0, r_max] at once."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_array_kernel_bits(self, name):
        u, oracle, r_low = KERNELS[name]()
        rng = np.random.default_rng(21)
        r_max = u.r_max
        # uniform on (0, r_max], log-uniform from below the first knot, and r_max
        rs = np.concatenate((
            r_max * (1.0 - rng.random(50_000)),
            np.minimum(np.exp(rng.uniform(math.log(r_low), math.log(r_max), 50_000)), r_max),
            [r_max],
        ))
        assert ((0.0 < rs) & (rs <= r_max)).all()
        want = np.array([oracle(r) for r in rs.tolist()])
        assert np.array_equal(u.log_eval(rs).view(np.uint64), want.view(np.uint64))
        # the 1e-9 allowance past r_max reads as r_max, for a number too
        past = np.array([u.log_eval(r_max * (1.0 + 5e-10))])
        assert past.view(np.uint64)[0] == np.array([oracle(r_max)]).view(np.uint64)[0]
        assert type(u.log_eval(r_max)) is float

    @pytest.mark.parametrize("k, rs", [(3, [1.0, 6.6, 6.9]), (4, [0.5, 2.0, 3.0])],
                             ids=["bell(3)", "bell(4)"])
    def test_bell_past_a_double_raises_the_frozen_message(self, k, rs):
        # an in-range array with a value past a double raises at its first such radius
        with pytest.raises(scalar_kernels.PrecisionError) as frozen:
            scalar_kernels.bell(k)(rs[1])
        with pytest.raises(PrecisionError) as got:
            bell_weight(k, r_max=7.0).log_eval(np.array(rs))
        assert str(got.value) == str(frozen.value)


def _python_frames(call) -> int:
    """How many Python frames call() runs."""
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call"

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


class TestOneKernelCall:
    """An in-range array reaches the kernel in one call, and the kernel runs
    no Python frame per radius: its frame count does not grow with the array."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_in_range_array_is_one_kernel_call(self, name):
        u = KERNELS[name]()[0]
        calls = []
        counted = dataclasses.replace(u, _log_eval=lambda r: calls.append(len(r)) or u._log_eval(r))
        frames = []
        for n in (10, 1000):
            # from far below the first knot up to r_max, so every branch runs
            rs = np.geomspace(u.r_max * 1e-20, u.r_max, n)
            frames.append(_python_frames(lambda: counted.log_eval(rs)))
        assert calls == [10, 1000]
        assert frames[0] == frames[1]

    def test_a_lifted_scalar_callable_runs_once_per_radius(self):
        u = from_callable("linear", lambda r: r, r_max=10.0)
        assert _python_frames(lambda: u.log_eval(np.geomspace(1.0, 10.0, 100))) >= 100


class TestLogK:
    """The clamped iterated logarithm against its closed forms."""

    def test_one_fold_is_the_clamped_log(self):
        for r in (0.0, 0.5, 1.0, 2.0, math.e, 2.72, 10.0, 1e300):
            assert log_k(1, r) == (1.0 if r <= math.e else math.log(r)), r

    def test_two_fold_inverts_the_double_exponential(self):
        assert log_k(2, math.exp(math.exp(2.0))) == pytest.approx(2.0, rel=1e-15)
        assert log_k(2, 1e-3) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 6), r=st.floats(0.0, 1e300))
    def test_never_below_one(self, k, r):
        assert log_k(k, r) >= 1.0

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            log_k(0, 5.0)


class TestCatalog:
    def test_power_exp_values(self):
        u = power_exp(0.5)
        assert u.log_eval(8.0) == pytest.approx(1.5 * 8.0 ** (2.0 / 3.0))
        assert u.log_eval(0.0) == 0.0

    def test_power_exp_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            power_exp(1.0)
        with pytest.raises(ValueError):
            power_exp(-0.1)

    def test_repr_names_the_params_and_not_the_kernel(self):
        text = repr(power_exp(0.3))
        assert "params={'beta': 0.3}" in text and "0x" not in text

    def test_bell_weight_order_two(self):
        u = bell_weight(2)
        assert u.log_eval(1.0) == pytest.approx(math.e - 1.0)
        assert u.log_eval(0.0) == 0.0

    def test_domain_errors(self):
        u = power_exp(0.0, r_max=100.0)
        with pytest.raises(DomainError):
            u.log_eval(-1.0)
        with pytest.raises(DomainError):
            u.log_eval(101.0)
        # boundary round-trip noise is tolerated
        assert u.log_eval(100.0 * (1 + 1e-12)) == pytest.approx(100.0)

    def test_custom_table_rejects_a_repeated_abscissa(self):
        # np.interp needs increasing knots: it would jump from 0.5 to 5 at r = 1
        with pytest.raises(ValueError, match="r=1.0 appears twice"):
            custom_table([(0, 0), (1, 0.5), (1, 5), (10, 6)])

    def test_custom_table_interpolates_in_log_r(self):
        u = custom_table([(1.0, 0.0), (100.0, 2.0)])
        assert u.log_eval(10.0) == pytest.approx(1.0)

    def test_from_config_round_trip(self):
        u = from_config({"family": "power_exp", "params": {"beta": 0.25}})
        assert u.params["beta"] == 0.25
        with pytest.raises(ValueError):
            from_config({"family": "nope", "params": {}})

    @given(st.floats(min_value=0.01, max_value=1e6),
           st.floats(min_value=1.001, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_power_exp_is_increasing(self, r, factor):
        u = power_exp(0.3)
        assert u.log_eval(r * factor) > u.log_eval(r)


class TestConvexity:
    def test_power_exp_is_log_x2_convex(self):
        for beta in (0.0, 0.5, 0.9):
            assert check_log_x2_convex(power_exp(beta)).verdict == CONSISTENT

    def test_bell_weight_is_log_x2_convex(self):
        assert check_log_x2_convex(bell_weight(2)).verdict == CONSISTENT

    def test_concave_profile_is_flagged(self):
        # log u(x^2) = sqrt(x): strictly concave
        u = from_callable("concave", lambda r: r**0.25, r_max=1e6)
        rep = check_log_x2_convex(u)
        assert rep.verdict == VIOLATED
        assert rep.witness is not None

    def test_infinite_log_u_is_flagged_with_its_triple(self):
        # log u(x^2) = x^2 up to x = 2, then inf: the chord over (1, 1.5, 2) is
        # infinite, and the next triple's is inf - inf = NaN
        u = from_callable("wall", lambda r: r if r < 4.0 else math.inf, r_max=10.0)
        rep = check_log_x2_convex(u, [0.5, 1.0, 1.5, 2.0, 2.5])
        assert rep.verdict == VIOLATED
        assert rep.witness == (1.0, 1.5, 2.0)
        assert not math.isfinite(rep.worst_defect)

    def test_nan_defect_is_flagged(self):
        u = custom_table([[0, 0], [1, math.inf], [10, math.inf]])
        with np.errstate(invalid="ignore"):
            rep = check_log_x2_convex(u, [1.0, 2.0, 3.0])
        assert rep.verdict == VIOLATED
        assert rep.witness == (1.0, 2.0, 3.0)


class TestClassify:
    def test_power_exp_zero_is_in_all_classes(self):
        m = classify(power_exp(0.0), r_max=1e6)
        assert m.in_C_plus_log == CONSISTENT
        assert m.in_C_plus_half == CONSISTENT
        assert m.in_C_plus_half_one == CONSISTENT
        assert m.log_x2_convex == CONSISTENT

    def test_bell_two_fails_the_linear_bound(self):
        # log u_2(r) = e^r - 1 outgrows r, so (eq:embed) boundedness fails
        m = classify(bell_weight(2))
        assert m.in_C_plus_half == CONSISTENT
        assert m.in_C_plus_half_one == VIOLATED

    def test_polynomial_growth_fails_divergence(self):
        u = from_callable("poly", lambda r: math.log1p(r), r_max=1e12)
        m = classify(u)
        assert m.in_C_plus_log == VIOLATED
        assert m.in_C_plus_half == VIOLATED

    def test_report_is_labeled_with_r_max(self):
        m = classify(power_exp(0.0), r_max=1e5)
        assert m.r_max == 1e5


class TestFuncEquivalent:
    def test_scale_shifted_weight_is_equivalent(self):
        u = power_exp(0.0)
        v = from_callable("u2r", lambda r: 2.0 * r, r_max=1e29)  # u(2r)
        rep = func_equivalent(u, v)
        assert rep.verdict == CONSISTENT

    def test_different_growth_orders_are_not_equivalent(self):
        rep = func_equivalent(power_exp(0.0), bell_weight(2))
        assert rep.verdict == VIOLATED

    def test_self_equivalence_envelope_holds_on_the_grid(self):
        u = power_exp(0.25)
        rep = func_equivalent(u, u)
        assert rep.verdict == CONSISTENT
        # the reported constants satisfy c1 u(a1 r) <= u(r) <= c2 u(a2 r)
        for r in np.geomspace(*rep.r_range, 32):
            lo = math.log(rep.c1) + u.log_eval(rep.a1 * r)
            hi = math.log(rep.c2) + u.log_eval(rep.a2 * r)
            assert lo <= u.log_eval(r) + 1e-9
            assert u.log_eval(r) <= hi + 1e-9
