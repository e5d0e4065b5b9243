import math

import numpy as np
import pytest

from wncalc import chaos, legendre
from wncalc.cli import _jsonable
from wncalc.legendre import (
    UnboundedError,
    audit_infimum,
    audit_supremum,
    dual_function,
    dual_of,
    dual_weight,
    legendre_table,
    legendre_transform,
    log_factorial,
    seq_equivalent,
    verify_dual_sequence,
)
from wncalc.weights import CONSISTENT, VIOLATED, from_callable, power_exp


def closed_form_ell(beta: float, n: float) -> float:
    # inf of exp((1+b) r^(1/(1+b)))/r^n is (e/n)^((1+b)n), in logs
    return (1.0 + beta) * n * (1.0 - math.log(n))


def closed_form_dual(beta: float, r: float) -> float:
    return (1.0 - beta) * r ** (1.0 / (1.0 - beta))


class TestLegendreTransform:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_matches_closed_form(self, beta):
        u = power_exp(beta)
        for n in (1, 2, 7, 19):
            got = legendre_transform(u, float(n)).log_value
            assert got == pytest.approx(closed_form_ell(beta, n), abs=1e-8)

    def test_t_zero_gives_u_at_zero(self):
        res = legendre_transform(power_exp(0.0), 0.0)
        assert res.log_value == pytest.approx(0.0, abs=1e-10)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            legendre_transform(power_exp(0.0), -1.0)

    def test_unbounded_infimum_raises(self):
        # u(r) = r grows slower than r^2, so inf u(r)/r^2 = 0 (log -> -inf)
        u = from_callable("linear", math.log, r_max=1e12)
        with pytest.raises(UnboundedError):
            legendre_transform(u, 2.0)

    def test_infimum_certificate(self):
        rng = np.random.default_rng(1)
        u = power_exp(0.25)
        for t in (1.0, 5.0, 12.0):
            res = legendre_transform(u, t)
            assert audit_infimum(u, t, res.log_value, rng)


class TestDualFunction:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_matches_closed_form(self, beta):
        u = power_exp(beta)
        for r in (0.01, 1.0, 55.0, 1e4):
            got = dual_function(u, r).log_value
            want = closed_form_dual(beta, r)
            assert got == pytest.approx(want, rel=1e-8)

    def test_supremum_certificate(self):
        rng = np.random.default_rng(2)
        u = power_exp(0.5)
        for r in (0.5, 10.0):
            res = dual_function(u, r)
            assert audit_supremum(u, r, res.log_value, rng)

    def test_materialized_dual_matches_pointwise(self):
        u = power_exp(0.25)
        ustar = dual_weight(u, r_max=1e6)
        for r in (0.037, 3.7, 370.0, 3.7e5):  # off the cache grid
            assert ustar.log_eval(r) == pytest.approx(
                dual_function(u, r).log_value, rel=1e-6, abs=1e-6
            )


class TestTable:
    def test_csv_has_header_and_rows(self):
        table = legendre_table(power_exp(0.0), [1.0, 2.0, 3.0])
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "t,ell,argmin_r,status"
        assert len(lines) == 4

    def test_argmin_matches_closed_form(self):
        # for v_0 the minimizer of e^r/r^n is r = n
        table = legendre_table(power_exp(0.0), [2.0, 5.0, 9.0])
        assert table.argmin_r == pytest.approx([2.0, 5.0, 9.0], rel=1e-6)


class TestSeqEquivalent:
    def test_exact_geometric_envelope(self):
        log_a = [0.1 * n for n in range(20)]
        log_b = [math.log(3.0) + n * math.log(2.0) + v for n, v in enumerate(log_a)]
        rep = seq_equivalent(log_a, log_b)
        assert rep.verdict == CONSISTENT
        assert rep.c1 == pytest.approx(2.0, rel=1e-9)
        assert rep.K1 <= 3.0 <= rep.K2 * (1 + 1e-12)

    def test_envelope_inequalities_hold_literally(self):
        rng = np.random.default_rng(3)
        log_a = np.cumsum(rng.uniform(0, 1, 30))
        log_b = log_a + rng.uniform(-0.5, 0.5, 30) + 0.3 * np.arange(30)
        rep = seq_equivalent(log_a.tolist(), log_b.tolist())
        n = np.arange(30)
        lo = math.log(rep.K1) + n * math.log(rep.c1) + log_a
        hi = math.log(rep.K2) + n * math.log(rep.c2) + log_a
        assert np.all(lo <= log_b + 1e-9)
        assert np.all(log_b <= hi + 1e-9)

    def test_super_geometric_ratio_is_flagged(self):
        log_a = [0.0] * 30
        log_b = [log_factorial(n) for n in range(30)]
        assert seq_equivalent(log_a, log_b).verdict == VIOLATED

    def test_rejects_short_or_nonfinite_input(self):
        with pytest.raises(ValueError):
            seq_equivalent([0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            seq_equivalent([0.0] * 10, [math.inf] + [0.0] * 9)


class TestDualSequence:
    def test_power_exp_zero_satisfies_the_relation(self):
        rep = verify_dual_sequence(power_exp(0.0), 20)
        assert rep.verdict == CONSISTENT
        # the product ell_u ell_u* (n!)^2 drifts only like 2 pi n
        assert abs(math.log(rep.c1)) < 0.1


def test_log_factorial_matches_lgamma():
    for n in (0, 1, 10, 63, 64, 200):
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1.0), rel=1e-12)


class TestDualOf:
    def test_one_dual_weight_build_per_weight_object(self, monkeypatch):
        builds = []

        def counting_dual_weight(u, *args, **kwargs):
            builds.append(u)
            return dual_weight(u, *args, **kwargs)

        monkeypatch.setattr(legendre, "dual_weight", counting_dual_weight)
        u = power_exp(0.0)
        verify_dual_sequence(u, 10)
        ustar = dual_of(u)
        assert builds == [u]
        assert dual_of(u) is ustar
        assert chaos.dual_of(u) is ustar

    def test_memo_stays_out_of_reports(self):
        u = power_exp(0.0)
        dual_of(u)
        assert set(_jsonable(u)) == {"name", "r_max", "params", "u_at_zero", "increasing"}
