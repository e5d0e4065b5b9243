import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wncalc.weights import (
    CONSISTENT,
    VIOLATED,
    DomainError,
    PrecisionError,
    bell_weight,
    check_log_x2_convex,
    classify,
    custom_table,
    from_callable,
    from_config,
    func_equivalent,
    power_exp,
)


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
