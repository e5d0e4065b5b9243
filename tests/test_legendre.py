import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest

import scalar_optimize
from wncalc import chaos, legendre, optimize, sequences
from wncalc.cli import _jsonable
from wncalc.legendre import (
    UnboundedError,
    certify,
    dual_function,
    dual_of,
    dual_weight,
    legendre_transform,
    log_factorial,
    seq_equivalent,
    verify_dual_sequence,
)
from wncalc.weights import (
    CONSISTENT,
    VIOLATED,
    WeightFunction,
    bell_weight,
    custom_table,
    from_callable,
    power_exp,
)


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

    def test_bell_two_matches_lambert_w(self):
        # log u = e^r - 1 is stationary against n log r where r e^r = n, so
        # log ell(n) = e^W(n) - 1 - n log W(n) (Corless et al., Adv. Comput. Math. 5, 1996)
        got = legendre.log_ell_sequence(bell_weight(2), 30)
        with mp.workdps(40):
            for n in range(1, 31):
                w = mp.lambertw(n).real
                want = float(mp.exp(w) - 1 - n * mp.log(w))
                assert got[n] == pytest.approx(want, rel=1e-13, abs=0.0), n

    def test_infimum_certificate(self):
        u, ts = power_exp(0.25), [1.0, 5.0, 12.0]
        got = legendre_transform(u, ts).log_value
        assert certify(u, ts, got).tolist() == [True] * 3
        assert certify(u, ts, got + 1.0).tolist() == [False] * 3


def bell2_log_dual(r: float) -> float:
    """log u*(r) of bell(2), log u(s) = e^s - 1, to 40 digits: the maximizer of
    2 sqrt(rs) - log u(s) solves sqrt(r/s) = e^s, bisected in log s."""
    with mp.workdps(40):
        log_r, lo, hi = mp.log(r), mp.mpf(-60), mp.mpf(10)
        for _ in range(160):
            mid = (lo + hi) / 2
            if (log_r - mid) / 2 > mp.exp(mid):
                lo = mid
            else:
                hi = mid
        s = mp.exp((lo + hi) / 2)
        return float(2 * mp.sqrt(r * s) - mp.expm1(s))


class TestDualFunction:
    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_matches_closed_form(self, beta):
        u = power_exp(beta)
        for r in (0.01, 1.0, 55.0, 1e4):
            got = dual_function(u, r).log_value
            want = closed_form_dual(beta, r)
            assert got == pytest.approx(want, rel=1e-8)

    def test_supremum_certificate(self):
        u, rs = power_exp(0.5), [0.5, 10.0]
        got = dual_function(u, rs).log_value
        assert certify(u, rs, got, dual=True).tolist() == [True] * 2
        assert certify(u, rs, got - 10.0, dual=True).tolist() == [False] * 2

    # off the knots of the u* grid, which has 32 per decade from 1e-8
    BELL2_RS = [1.3e-4, 0.31, 47.0, 3.9e4, 6.1e7]

    def test_bell_2_against_a_bisection_oracle(self):
        got = dual_function(bell_weight(2), self.BELL2_RS).log_value.tolist()
        # the kernel's e^s - 1 in floats makes the error absolute where log u* < 1
        assert got == pytest.approx([bell2_log_dual(r) for r in self.BELL2_RS],
                                    rel=1e-14, abs=1e-14)

    def test_bell_2_u_star_against_a_bisection_oracle(self):
        # measured worst error 1.7e-9
        got = dual_weight(bell_weight(2)).log_eval(np.array(self.BELL2_RS))
        assert got.tolist() == pytest.approx([bell2_log_dual(r) for r in self.BELL2_RS],
                                             rel=2e-9, abs=0.0)

    def test_materialized_dual_matches_pointwise(self):
        u = power_exp(0.25)
        ustar = dual_weight(u)
        for r in (0.037, 3.7, 370.0, 3.7e5):  # off the cache grid
            assert ustar.log_eval(r) == pytest.approx(
                dual_function(u, r).log_value, rel=1e-6, abs=1e-6
            )


class TestDualWeightOracle:
    """The materialized u* against the closed form, sharing no code with legendre."""

    # measured worst errors: 2.7e-10, 5.5e-10, 1.0e-9 and 1.1e-9; the Hermite on 32
    # knots per decade is the accuracy floor this bound pins
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.55])
    def test_power_exp_dual_weight_matches_closed_form(self, beta):
        ustar = dual_weight(power_exp(beta))
        rs = np.geomspace(1e-6, 1e8, 2_001)
        got = ustar.log_eval(rs)
        want = (1.0 - beta) * rs ** (1.0 / (1.0 - beta))
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert rel.max() <= 1.5e-9

    # measured worst errors: 3.3e-9 at beta 0.2 and 3.4e-9 at beta 0.5
    @pytest.mark.parametrize("beta", [0.2, 0.5])
    def test_ell_of_u_star_matches_closed_form(self, beta):
        # u*(r) = exp((1-b) r^(1/(1-b))) is power_exp(-b) in form, so
        # log ell_{u*}(n) = (1-b) n (1 - log n), and 0 at n = 0
        got = legendre.log_ell_sequence(dual_of(power_exp(beta)), 30)
        want = [0.0] + [closed_form_ell(-beta, n) for n in range(1, 31)]
        assert np.abs(got - want).max() <= 7e-9


class TestDualityIdentity:
    """ell_u(n) ell_{u*}(n) = (e/n)^(2n) for n >= 1, and 1 at n = 0, for every u whose
    log u(x^2) is convex: weak duality gives >= and Sion's minimax theorem (Pacific J.
    Math. 8, 1958) equality.  So the sum of the two solved log sequences has a closed
    form for every catalog weight, bell(2) included, which no other test has for ell_{u*}."""

    # measured worst |residual|: 2.9e-9, 6.9e-9, 3.4e-9, 6.9e-9 and 5.7e-9; the bound is
    # the 1e-8 of ell_u in TestLegendreTransform plus the 7e-9 of ell_{u*} above
    @pytest.mark.parametrize("name", ["power_exp(0)", "power_exp(0.3)", "power_exp(0.5)",
                                      "power_exp(0.55)", "bell(2)"])
    def test_ell_times_ell_of_u_star_is_the_closed_form(self, name):
        u = HERMITE_WEIGHTS[name]()
        got = legendre.log_ell_sequence(u, 30) + legendre.log_ell_sequence(dual_of(u), 30)
        want = [0.0] + [2.0 * n * (1.0 - math.log(n)) for n in range(1, 31)]
        assert np.abs(got - want).max() <= 1.7e-8


HERMITE_WEIGHTS = {
    "power_exp(0)": lambda: power_exp(0.0),
    "power_exp(0.3)": lambda: power_exp(0.3),
    "power_exp(0.5)": lambda: power_exp(0.5),
    # the maximizer at the first knots lies below the solver's range, which gives
    # log u* <= 0 there: the cubic starts at a later knot
    "power_exp(0.55)": lambda: power_exp(0.55),
    "bell(1)": lambda: bell_weight(1),
    "bell(2)": lambda: bell_weight(2),
    "bell(5)": lambda: bell_weight(5),
    # u* has a kink wherever its maximizer jumps from one abscissa to the next,
    # and the exact slopes there leave the Fritsch-Carlson region
    "table(1 per decade)": lambda: custom_table(
        [(r, 1.3 * r ** (1.0 / 1.3)) for r in np.logspace(-30, 30, 61).tolist()]),
    # u(0) = e^0.5, so log u* < 0 up to r = 0.5
    "table(u(0) > 1)": lambda: custom_table(
        [(0.0, 0.5)] + [(r, 0.5 + r) for r in np.logspace(-12, 9, 43).tolist()]),
}


class TestHermiteDualWeight:
    """u* is nondecreasing between and across the knots, its slopes are scaled into
    the Fritsch-Carlson region where the exact ones leave it, and a build from
    knot values or maximizers that are not finite is refused."""

    @pytest.mark.parametrize("name", HERMITE_WEIGHTS)
    def test_dense_radii_give_a_nondecreasing_u_star(self, name):
        u = HERMITE_WEIGHTS[name]()
        ustar = dual_weight(u)
        knots, _, below = ustar._log_eval.args
        knots = np.concatenate((below[0, 1:], [math.exp(x) for x in knots.tolist()]))
        rs = np.sort(np.concatenate((
            np.geomspace(1e-12, 1e8, 200_001),
            knots[:-1], np.nextafter(knots[:-1], 0.0), np.nextafter(knots[:-1], np.inf),
        )))
        got = ustar.log_eval(rs)
        # u*(r) >= u*(0) = 1/u(0)
        assert np.isfinite(got).all() and (got >= -math.log(u.u_at_zero)).all()
        assert (np.diff(got) >= 0).all()

    @staticmethod
    def build_with(monkeypatch, edit):
        """A default u* build of power_exp(0.3) whose batch columns of knot values and
        maximizers edit(values, maximizers) changes in place, and the unchanged columns."""
        solve = legendre.dual_function
        batch = []

        def patched(u, rs):
            res = solve(u, rs)
            batch.append(res)
            values, args = res.log_value.copy(), res.arg_r.copy()
            edit(values, args)
            return legendre.TransformResult(values, args, res.status)

        monkeypatch.setattr(legendre, "dual_function", patched)
        return dual_weight(power_exp(0.3)), batch[0]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("column", [0, 1], ids=["value", "maximizer"])
    def test_a_knot_value_or_maximizer_not_finite_is_refused(self, monkeypatch, column, bad):
        def edit(*columns):
            columns[column][200] = bad

        message = (r"^log u\* of power_exp\(beta=0\.3\) at r=\S+ is \S+ with maximizer"
                   r" s\*=\S+, not finite$")
        with pytest.raises(ValueError, match=message):
            self.build_with(monkeypatch, edit)

    def test_fewer_than_two_knots_with_log_u_star_above_zero_are_refused(self, monkeypatch):
        def edit(values, _):
            values[:-1] = -1.0

        message = (r"^log u\* of power_exp\(beta=0\.3\) is > 0 at fewer than two knots"
                   r" in \[\S+, \S+\]$")
        with pytest.raises(ValueError, match=message):
            self.build_with(monkeypatch, edit)

    def test_two_knots_with_log_u_star_above_zero_give_one_cubic(self, monkeypatch):
        def edit(values, _):
            values[:-2] = -1.0

        ustar, _ = self.build_with(monkeypatch, edit)
        assert len(ustar._log_eval.args[0]) == 2

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_leading_knot_values_not_above_zero_give_the_linear_part(self, monkeypatch, value):
        def edit(values, _):
            values[:100] = value

        ustar, batch = self.build_with(monkeypatch, edit)
        knots, _, (radii, logs) = ustar._log_eval.args
        # the cubic starts at knot 100; below it u* climbs from 1, which it is up to knot 99
        assert radii.tolist() == [0.0, *U_STAR_GRID[:101].tolist()]
        assert knots[0] == math.log(radii[-1])
        assert (logs[:-1] == 0.0).all() and logs[-1] > 0.0
        assert (ustar.log_eval(np.geomspace(1e-12, radii[-2], 1_001)) == 0.0).all()

    def test_steep_slopes_are_scaled_into_the_fritsch_carlson_region(self, monkeypatch):
        def edit(_, maximizers):
            maximizers[200] *= 100.0  # a slope 10 times the secant's at knot 200

        plain = dual_weight(power_exp(0.3))
        ustar, batch = self.build_with(monkeypatch, edit)
        knots, coeffs, _ = ustar._log_eval.args
        h = np.diff(knots)
        c0, c1, d0 = coeffs[0], coeffs[1], coeffs[2]
        d1 = (3.0 * c0 * h + 2.0 * c1) * h + d0  # the cubic's slope at the right knot
        m = np.diff(np.log(batch.log_value)) / h
        assert (d0 >= 0).all() and (d1 >= 0).all()
        assert (d0 * d0 + d1 * d1 <= 9.0 * m * m * (1.0 + 1e-9)).all()
        # the two slopes of the knot's intervals and their outer neighbours are scaled
        changed = (coeffs != plain._log_eval.args[1]).any(axis=0)
        assert np.flatnonzero(changed).tolist() == [198, 199, 200, 201]
        rs = np.geomspace(math.exp(knots[198]), math.exp(knots[202]), 100_001)
        assert (np.diff(ustar.log_eval(rs)) >= 0).all()

    def test_a_flat_clipped_interval_is_constant(self, monkeypatch):
        def edit(values, _):
            values[201] = values[200] - 1e-3  # clipped to the value at knot 200

        ustar, batch = self.build_with(monkeypatch, edit)
        knots, coeffs, _ = ustar._log_eval.args
        assert coeffs[:3, 200].tolist() == [0.0, 0.0, 0.0]
        got = ustar.log_eval(np.geomspace(math.exp(knots[200]), math.exp(knots[201]), 1_001))
        assert (got == got[0]).all()
        assert got[0] == pytest.approx(batch.log_value[200], rel=1e-15)

    def test_beta_past_one_half_gives_a_verdict(self):
        # the first knots' maximizer r^((1+b)/(1-b)) lies below the solver's range
        assert verify_dual_sequence(power_exp(0.55), 30).verdict == CONSISTENT


class TestTable:
    def test_argmin_matches_closed_form(self):
        # for v_0 the minimizer of e^r/r^n is r = n
        res = legendre_transform(power_exp(0.0), [2.0, 5.0, 9.0])
        assert res.arg_r.tolist() == pytest.approx([2.0, 5.0, 9.0], rel=1e-6)


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

        def counting_dual_weight(u):
            builds.append(u)
            return dual_weight(u)

        monkeypatch.setattr(legendre, "dual_weight", counting_dual_weight)
        u = power_exp(0.0)
        verify_dual_sequence(u, 10)
        ustar = dual_of(u)
        assert builds == [u]
        assert dual_of(u) is ustar
        assert chaos.dual_of(u) is ustar
        # a weight keeps only its u* and its ell sequence
        assert set(u._memo) == {"dual", "log_ell"} and set(ustar._memo) == {"log_ell"}

    def test_a_built_dual_leaves_no_reference_cycle(self):
        # the memo would otherwise hold u* and u* would hold u, so both would
        # wait for a full collection with the whole u* table
        u = power_exp(0.0)
        dual_of(u).log_eval(1.0)
        ref = weakref.ref(u)
        gc.disable()
        try:
            del u
            assert ref() is None
        finally:
            gc.enable()

    def test_a_failed_dual_build_leaves_nothing_holding_u(self):
        u = from_callable("slow", lambda r: r ** 0.4)
        # plain try, not pytest.raises: a kept traceback would hold u
        try:
            dual_of(u).log_eval(1.0)
        except UnboundedError:
            pass
        else:
            raise AssertionError("u outside C_+,1/2 gave a u*")
        assert "dual" not in u._memo
        ref = weakref.ref(u)
        gc.disable()
        try:
            del u
            assert ref() is None
        finally:
            gc.enable()

    def test_memo_stays_out_of_reports(self):
        u = power_exp(0.0)
        dual_of(u)
        assert set(_jsonable(u)) == {"name", "r_max", "params", "u_at_zero", "increasing"}


class TestEllSequenceMemo:
    """One log ell_u sequence per weight object serves every check that reads it."""

    @staticmethod
    def count_solves(monkeypatch) -> list:
        # every legendre_transform (and dual_function) batch goes through
        # here, with one scan row per solve
        solves = []
        minimize = optimize.minimize_scalar

        def counting(f, lo, hi, scan):
            solves.extend(scan)
            return minimize(f, lo, hi, scan)

        monkeypatch.setattr(optimize, "minimize_scalar", counting)
        return solves

    def test_checks_after_the_dual_sequence_solve_nothing(self, monkeypatch):
        u = power_exp(0.0)
        verify_dual_sequence(u, 20)
        solves = self.count_solves(monkeypatch)
        chaos.log_ell_sequence(u, 6)
        legendre.log_ell_sequence(dual_of(u), 6)
        sequences.alpha_from_u(u, 20)
        assert solves == []

    def test_a_longer_request_extends_the_kept_sequence(self, monkeypatch):
        u = power_exp(0.3)
        head = chaos.log_ell_sequence(u, 4).tolist()
        solves = self.count_solves(monkeypatch)
        got = chaos.log_ell_sequence(u, 10)
        assert len(solves) == 6
        assert got[:5].tolist() == head
        assert got.tobytes() == chaos.log_ell_sequence(power_exp(0.3), 10).tobytes()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _first_error(solve_each):
    try:
        solve_each()
    except (ValueError, ArithmeticError) as exc:
        return exc
    raise AssertionError("the element-by-element loop raised nothing")


class TestBatchSolver:
    """A batch of transforms equals the frozen scalar solver run once per
    argument on its own objective: the same floats, statuses and first error,
    and as many evaluations less the coarse scan of each solve."""

    WEIGHTS = {
        "power_exp(0)": lambda: power_exp(0.0),
        "power_exp(0.3)": lambda: power_exp(0.3),
        "power_exp(0.5)": lambda: power_exp(0.5),
        "bell(2)": lambda: bell_weight(2),
        # log u overflows near r_max = 800, so the scan rows hold inf
        "bell(2) to 800": lambda: bell_weight(2, r_max=800.0),
        "u* of power_exp(0)": lambda: dual_weight(power_exp(0.0)),
    }

    @staticmethod
    def solve(monkeypatch, transform, u, args):
        """The batch results, and the evaluations of its one minimize_scalar call."""
        evaluations = []
        minimize = optimize.minimize_scalar

        def recording(*call):
            res = minimize(*call)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(optimize, "minimize_scalar", recording)
        rows = transform(u, args)
        assert len(evaluations) == 1
        return rows, evaluations[0]

    @staticmethod
    def assert_bit_equal(res, refs):
        assert res.status.tolist() == [ref.status for ref, _ in refs]
        assert _bits(res.log_value) == _bits([ref.log_value for ref, _ in refs])
        assert _bits(res.arg_r) == _bits([ref.arg_r for ref, _ in refs])

    # u* of u* is u, whose maximizer passes r_max = 1e8 at the top of the grid
    @pytest.mark.parametrize("name", [name for name in WEIGHTS if not name.startswith("u*")])
    def test_dual_function_on_the_default_u_star_grid(self, name, monkeypatch):
        # the batch under test is the one dual_function call of a u* build
        u = self.WEIGHTS[name]()
        batches = []
        solve = legendre.dual_function

        def recording(w, rs):
            batches.append((rs.tolist(), solve(w, rs)))
            return batches[-1][1]

        monkeypatch.setattr(legendre, "dual_function", recording)
        ustar, evaluations = self.solve(monkeypatch, lambda w, _: dual_weight(w), u, None)
        [(rs, rows)] = batches
        assert rs == np.exp(ustar._log_eval.args[0]).tolist()
        assert rs == U_STAR_GRID.tolist()
        refs = [scalar_optimize.dual_function(u, r) for r in rs]
        self.assert_bit_equal(rows, refs)
        assert evaluations == sum(n - optimize.COARSE for _, n in refs)

    @pytest.mark.parametrize("name", list(WEIGHTS))
    def test_dual_function_at_five_arguments(self, name, monkeypatch):
        u = self.WEIGHTS[name]()
        rs = [0.0, 1e-6, 0.3, 4.0, 50.0]
        rows, evaluations = self.solve(monkeypatch, dual_function, u, np.array(rs))
        refs = [scalar_optimize.dual_function(u, r) for r in rs]
        self.assert_bit_equal(rows, refs)
        assert evaluations == sum(n - optimize.COARSE for _, n in refs)

    @pytest.mark.parametrize("name", list(WEIGHTS))
    def test_legendre_transform_up_to_forty(self, name, monkeypatch):
        u = self.WEIGHTS[name]()
        rows, evaluations = self.solve(monkeypatch, legendre_transform, u, np.arange(41.0))
        refs = [scalar_optimize.legendre_transform(u, float(n)) for n in range(41)]
        self.assert_bit_equal(rows, refs)
        assert evaluations == sum(n - optimize.COARSE for _, n in refs)

    def test_random_scans_match_the_scalar_solver(self):
        # ties, signed zeros, inf, -inf and NaN in the scans exercise the
        # candidate order, the fallback without a finite local minimum and
        # the first-strict-minimum rule
        rng = np.random.default_rng(5)
        lo, hi = -3.0, 4.0
        grid = optimize.scan_grid(lo, hi)
        centers, waves = rng.uniform(-4, 5, 300), rng.choice([0.0, 1.0, 3.0], 300)

        def g(k, y):
            if k % 13 == 0:
                return math.inf
            v = (y - centers[k]) ** 2 + waves[k] * math.sin(5.0 * y)
            return math.nan if waves[k] == 3.0 and y > 3.5 else v

        batch_points = []  # every point the batch objective is asked for

        def objective(ks, ys):
            batch_points.extend(ys.tolist())
            return np.array([g(k, y) for k, y in zip(ks.tolist(), ys.tolist())], dtype=float)

        scans = np.array([[g(k, y) for y in grid.tolist()] for k in range(300)])
        scans[::3] = np.round(scans[::3])
        scans[1::7] = -0.0
        for fill in (math.inf, -math.inf, math.nan):
            scans[rng.random(scans.shape) < 0.05] = fill
        scans[2::11] = rng.choice([math.inf, math.nan], (len(scans[2::11]), 65))

        got = optimize.minimize_scalar(objective, lo, hi, scans)
        points = []  # every point the scalar solver evaluates, failing rows included

        def counted(k, y):
            points.append(y)
            return g(k, y)

        want = []  # (x, value, status) of each row; no finite value leaves NaN and inf
        for k, row in enumerate(scans.tolist()):
            try:
                ref = scalar_optimize.minimize_scalar(lambda y: counted(k, y), lo, hi, row)
            except ValueError:
                want.append((math.nan, math.inf, optimize.STATUS_NO_FINITE))
            else:
                want.append((ref.x, ref.value, ref.status))
        xs, values, statuses = zip(*want)
        assert got.x.dtype == got.value.dtype == np.float64
        assert _bits(got.x) == _bits(xs) and _bits(got.value) == _bits(values)
        assert got.status.tolist() == list(statuses)
        assert optimize.STATUS_NO_FINITE in statuses
        assert got.evaluations == len(points) == len(batch_points)
        assert sorted(batch_points) == sorted(points)

    # one ulp wide, the grid holds 1.0 up to point 32 and the next float from point 33,
    # so a bracket at any other point has no width and the golden-section batch is
    # empty; 1e-11 wide, every bracket passes its width test before the first step
    @pytest.mark.parametrize("hi, centers, empty", [
        (math.nextafter(1.0, 2.0), [c for c in range(65) if c not in (32, 33)], True),
        (1.0 + 1e-11, list(range(65)), False),
    ], ids=["no width", "narrower than TOL"])
    def test_brackets_narrower_than_tol_match_the_scalar_solver(self, hi, centers, empty):
        lo, grid = 1.0, optimize.scan_grid(1.0, hi)
        assert (np.flatnonzero(np.diff(grid)).tolist() == [32]) == empty
        # one well per row at its centre, and a second, shallower one at the far end
        scans = (np.arange(65.0) - np.array(centers, dtype=float)[:, None]) ** 2
        scans[:, -1] = np.minimum(scans[:, -1], 30.0)
        points = []

        def g(k, y):
            points.append(y)
            return (y - grid[centers[k]]) * 1e13

        def objective(ks, ys):
            return np.array([g(k, y) for k, y in zip(ks.tolist(), ys.tolist())], dtype=float)

        got = optimize.minimize_scalar(objective, lo, hi, scans)
        batch_points = points[:]
        points.clear()
        refs = [scalar_optimize.minimize_scalar(lambda y: g(k, y), lo, hi, row)
                for k, row in enumerate(scans.tolist())]
        assert _bits(got.x) == _bits([ref.x for ref in refs])
        assert _bits(got.value) == _bits([ref.value for ref in refs])
        assert got.status.tolist() == [ref.status for ref in refs]
        assert got.evaluations == len(points) == len(batch_points)
        assert (got.evaluations == 0) == empty

    def test_an_empty_batch_solves_nothing(self):
        def objective(ks, ys):
            raise AssertionError("no objective to evaluate")

        got = optimize.minimize_scalar(objective, 0.0, 1.0, np.zeros((0, optimize.COARSE)))
        assert got.x.shape == got.value.shape == got.status.shape == (0,)
        assert got.evaluations == 0

    def test_scan_values_of_the_wrong_length_rejected(self):
        for shape in [(1, 64), (65,), (1, 1, 65)]:  # too short a row, 1-D, 3-D
            message = f"need rows of 65 scan values, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                optimize.minimize_scalar(lambda ks, y: np.abs(y), -1.0, 1.0, np.zeros(shape))

    def test_safe_log_eval_of_an_array_is_inf_where_the_scalar_call_is(self):
        # bell's kernel takes exp of r <= 700 only, and raises past it; each radius
        # alone, as a one-element array, is the reference
        u = bell_weight(2, r_max=800.0)
        rs = np.array([0.0, 1e-3, 3.0, 699.0, 700.0, 700.5, 709.7, 709.8, 750.0, 800.0])
        want = [legendre._safe_log_eval(u, np.array([r]))[0] for r in rs.tolist()]
        got = legendre._safe_log_eval(u, rs)
        assert _bits(got) == _bits(want)
        assert np.isinf(want).tolist() == [False] * 5 + [True] * 5

    def test_an_overflowing_array_keeps_to_few_kernel_calls(self):
        # the certificate's 8 192 radii of bell(2) to 800: the ~18 past 700 overflow,
        # and the rest still reach the kernel in a few calls, with the same bits
        u = bell_weight(2, r_max=800.0)
        sizes = []
        counted = dataclasses.replace(u, _log_eval=lambda r: sizes.append(len(r)) or u._log_eval(r))
        ys = np.linspace(legendre._Y_LO, math.log(u.r_max), legendre.CERT_POINTS)
        rs = np.array([math.exp(y) for y in ys.tolist()])
        got = legendre._safe_log_eval(counted, rs)
        want = [legendre._safe_log_eval(u, np.array([r]))[0] for r in rs.tolist()]
        assert _bits(got) == _bits(want)
        assert 0 < np.isinf(got).sum() < 100
        assert len(sizes) < 100

    def test_the_scan_reaches_the_kernel_in_one_call(self):
        # exp(log 1e8) lies past r_max = 1e8, within the 1e-9 band that log_eval
        # reads as r_max, so the 65 scan radii still reach the kernel in one call
        assert math.exp(math.log(1e8)) > 1e8
        sizes = []
        u = WeightFunction("sizes", lambda r: sizes.append(len(r)) or r.copy(), r_max=1e8)
        legendre_transform(u, [1.0, 2.0])
        assert sizes[0] == optimize.COARSE

    def test_a_scalar_argument_is_a_batch_of_one(self):
        # a scalar gives float and str fields; a 1-D argument, columns of its length
        u = power_exp(0.3)
        for transform in (legendre_transform, dual_function):
            one = transform(u, 2.0)
            assert [type(v) for v in (one.log_value, one.arg_r, one.status)] == [float, float, str]
            col = transform(u, [2.0])
            assert _bits(col.log_value) + _bits(col.arg_r) == _bits([one.log_value, one.arg_r])
            assert col.status.tolist() == [one.status]
            for args in ([2.0], np.array([0.0, 2.0, 7.5]), np.array([])):
                res = transform(u, args)
                assert res.log_value.dtype == res.arg_r.dtype == np.float64
                assert len(res.log_value) == len(res.arg_r) == len(res.status) == len(args)

    def test_results_compare_equal_as_scalars_and_as_columns(self):
        u = power_exp(0.3)
        for transform in (legendre_transform, dual_function):
            assert transform(u, 2.0) == transform(u, 2.0)
            assert transform(u, 2.0) != transform(u, 3.0)
            col = transform(u, [1.0, 2.0])
            same = col == transform(u, np.array([1.0, 2.0]))
            assert type(same) is bool and same
            assert col != transform(u, [1.0, 3.0])
            assert col != transform(u, [1.0])
            assert transform(u, [2.0]) != transform(u, 2.0)

    def test_the_first_failing_argument_raises(self):
        # u = 1 on (0, 0.5]: inf of 1/r^t sits at r_max for every t > 0, and
        # at t = inf every objective value is infinite
        u = from_callable("one", lambda r: 0.0, r_max=0.5)
        kinds = set()
        for ts in ([0.0, 1.0, math.inf, 2.0], [0.0, math.inf, 1.0]):
            want = _first_error(lambda: [scalar_optimize.legendre_transform(u, t) for t in ts])
            with pytest.raises((ValueError, ArithmeticError)) as got:
                legendre_transform(u, ts)
            assert (type(got.value), str(got.value)) == (type(want), str(want))
            kinds.add(type(want))
        assert kinds == {UnboundedError, ValueError}

    def test_the_first_unbounded_dual_argument_raises(self):
        u = from_callable("linear", math.log, r_max=1e12)
        rs = [0.0, 3.0, 5.0]
        want = _first_error(lambda: [scalar_optimize.dual_function(u, r) for r in rs])
        with pytest.raises(UnboundedError, match=r"sqrt\(3\.0 s\)") as got:
            dual_function(u, rs)
        assert str(got.value) == str(want)


def _moved(values, up: bool) -> np.ndarray:
    # 1e-3 (1 + |v|) is 10 times the coarsest grid resolution seen, 9.8e-5 on bell(2)
    values = np.asarray(values, dtype=float)
    return values + (1.0 if up else -1.0) * 1e-3 * (1.0 + np.abs(values))


# the 513 knots of a default u* build, 32 per decade
U_STAR_GRID = np.exp(np.linspace(math.log(legendre.DUAL_R_LO), math.log(1e8), 513))
# 4 097 radii over the same range, 256 per decade, for dense certificates of dual_function
DUAL_CERT_GRID = np.exp(np.linspace(math.log(legendre.DUAL_R_LO), math.log(1e8), 4_097))


class TestCertify:
    """The grid certificate passes the solver's values and the oracles, and fails
    a value moved the wrong way or a local optimum that is not the global one."""

    @pytest.mark.parametrize("name", list(TestBatchSolver.WEIGHTS))
    def test_legendre_transform_up_to_forty(self, name):
        u, ts = TestBatchSolver.WEIGHTS[name](), np.arange(41.0)
        got = legendre_transform(u, ts).log_value
        assert certify(u, ts, got).all()
        assert certify(u, ts, _moved(got, up=False)).all()
        assert not certify(u, ts, _moved(got, up=True)).any()

    @pytest.mark.parametrize("name", [n for n in TestBatchSolver.WEIGHTS if not n.startswith("u*")])
    def test_dual_function_on_the_default_u_star_grid(self, name):
        u = TestBatchSolver.WEIGHTS[name]()
        got = dual_function(u, DUAL_CERT_GRID).log_value
        assert certify(u, DUAL_CERT_GRID, got, dual=True).all()
        assert certify(u, DUAL_CERT_GRID, _moved(got, up=True), dual=True).all()
        assert not certify(u, DUAL_CERT_GRID, _moved(got, up=False), dual=True).any()

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5])
    def test_closed_forms(self, beta):
        u, ns, rs = power_exp(beta), [1, 2, 7, 19], [0.01, 1.0, 55.0, 1e4]
        ell = [closed_form_ell(beta, n) for n in ns]
        ustar = [closed_form_dual(beta, r) for r in rs]
        assert certify(u, ns, ell).all() and certify(u, rs, ustar, dual=True).all()
        assert not certify(u, ns, _moved(ell, up=True)).any()
        assert not certify(u, rs, _moved(ustar, up=False), dual=True).any()

    def test_bell_two_oracles(self):
        u, ns = bell_weight(2), range(1, 31)
        with mp.workdps(40):
            ell = [float(mp.exp(w) - 1 - n * mp.log(w))
                   for n, w in ((n, mp.lambertw(n).real) for n in ns)]
        ustar = [bell2_log_dual(r) for r in TestDualFunction.BELL2_RS]
        assert certify(u, ns, ell).all()
        assert certify(u, TestDualFunction.BELL2_RS, ustar, dual=True).all()
        assert not certify(u, ns, _moved(ell, up=True)).any()
        assert not certify(u, TestDualFunction.BELL2_RS, _moved(ustar, up=False), dual=True).any()

    def test_the_dense_grid_is_built_a_block_of_rows_at_a_time(self):
        # unblocked, 4 097 rows of CERT_POINTS values would be 268 MB per array
        u, values = power_exp(0.0), np.zeros(len(DUAL_CERT_GRID))
        tracemalloc.start()
        try:
            certify(u, DUAL_CERT_GRID, values, dual=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * legendre._BLOCK * legendre.CERT_POINTS * 8

    def test_the_shallower_of_two_wells_fails(self):
        # log u(e^y) = (y^2 - 4)^2 + y / 2 has wells near y = -2 (deeper) and y = 2;
        # the tilt 2 sqrt(r) e^{y/2} of the dual at r = 0.01 keeps y = -2 the better one
        u = from_callable("two_wells", lambda r: (math.log(r) ** 2 - 4.0) ** 2
                          + 0.5 * math.log(r))
        for dual, arg in ((False, 0.0), (True, 0.01)):
            sign = -1.0 if dual else 1.0
            best = sign * (dual_function if dual else legendre_transform)(u, arg).log_value

            def objective(y):  # minimized: log u - t y, or -(2 sqrt(r) e^{y/2} - log u)
                tilt = 2.0 * math.sqrt(arg) * math.exp(0.5 * y) if dual else arg * y
                return u.log_eval(math.exp(y)) - tilt

            _, shallow, _ = scalar_optimize.golden_section(objective, 1.0, 3.0)
            assert best < shallow - 1.0
            assert certify(u, [arg], [sign * best], dual=dual).tolist() == [True]
            assert certify(u, [arg], [sign * shallow], dual=dual).tolist() == [False]
