"""Acceptance suite: one test per criterion, each ending in a single
pass/fail line on stdout."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from wncalc import chaos, measures
from wncalc.chaos import (
    FiniteGaussianModel,
    check_dist_bound,
    check_test_bound,
    coherent_state,
    coherent_tail_bound,
    gaussian_sample,
    hs_norm_inclusion,
    s_from_t,
    s_transform,
)
from wncalc.legendre import (
    dual_function,
    dual_weight,
    legendre_transform,
    log_factorial,
    seq_equivalent,
)
from wncalc.measures import MeasureModel, integrability_check, validate_sampler
from wncalc.sequences import bell_numbers, stirling_sandwich
from wncalc.weights import (
    bell_weight,
    from_callable,
    func_equivalent,
    power_exp,
    sqrt_log_weight,
)

BETAS = (0.0, 0.25, 0.5)


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {detail}")
    assert ok, detail


def random_chaos_vector(model, rng, role):
    c = rng.standard_normal(model.n_coeffs) + 1j * rng.standard_normal(model.n_coeffs)
    c *= np.exp(-model.log_factorials[model.degrees])
    return chaos.ChaosVector(model=model, coeffs=c, role=role)


def test_01_legendre_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for beta in BETAS:
        u = power_exp(beta)
        for n in range(1, 31):
            got = legendre_transform(u, float(n)).log_value
            want = (1.0 + beta) * n * (1.0 - math.log(n))
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-6 and elapsed < 2.0,
           f"max abs error {worst:.2e} (tol 1e-6), {elapsed:.2f}s (< 2s)")


def test_02_dual_closed_form():
    worst = 0.0
    grid = np.geomspace(1e-2, 1e4, 64)
    for beta in BETAS:
        u = power_exp(beta)
        for r in grid:
            got = dual_function(u, float(r)).log_value
            want = (1.0 - beta) * r ** (1.0 / (1.0 - beta))
            worst = max(worst, abs(got - want) / abs(want))
    report(2, worst <= 1e-6, f"max rel error {worst:.2e} (tol 1e-6)")


def test_03_dual_sequence_relation():
    v = power_exp(0.0)
    vstar = dual_weight(v)
    rho = []
    worst_factor = 0.0
    for n in range(2, 31):
        prod = (legendre_transform(v, float(n)).log_value
                + legendre_transform(vstar, float(n)).log_value
                + 2.0 * log_factorial(n))
        rho.append(prod)
        worst_factor = max(worst_factor, abs(prod - math.log(2 * math.pi * n)))
    fit = seq_equivalent([0.0] * len(rho), rho)
    log_c = abs(math.log(fit.c1))
    report(3, worst_factor <= math.log(2.0) and log_c <= 0.05,
           f"max |log(product/2 pi n)| = {worst_factor:.3f} (<= log 2), "
           f"fitted |log c| = {log_c:.3f} (<= 0.05)")


def test_04_stirling_sandwich():
    violations = []
    for beta in (0.0, 0.5, 0.9):
        rep = stirling_sandwich(beta, 50)
        if rep.verdict != "consistent":
            violations.append((beta, rep.first_violation))
    report(4, not violations, f"violations: {violations or 'none'} over n <= 50")


def test_05_bell_numbers_exact():
    t0 = time.monotonic()
    seq = bell_numbers(2, 25)
    row, triangle = [1], [1]
    for _ in range(25):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        triangle.append(nxt[0])
        row = nxt
    elapsed = time.monotonic() - t0
    ok = seq.exact_values == triangle and elapsed < 1.0
    report(5, ok, f"big-integer equality vs Bell triangle for n <= 25, {elapsed:.2f}s (< 1s)")


def test_06_bell_dual_equivalence():
    u2star = dual_weight(bell_weight(2))
    target = sqrt_log_weight(2)
    rep = func_equivalent(u2star, target, grid=np.geomspace(10.0, 1e6, 64))
    report(6, rep.verdict == "consistent",
           f"verdict {rep.verdict}, scales a1={rep.a1}, a2={rep.a2} on r in [10, 1e6]")


def test_07_hs_constant():
    got = hs_norm_inclusion(2.0, 0.0)
    want = math.pi**2 / 24.0
    err = abs(got - want)
    report(7, err <= 1e-9, f"|sum (2j+2)^-2 - pi^2/24| = {err:.2e} (tol 1e-9)")


def test_08_growth_bound_suites():
    t0 = time.monotonic()
    model = FiniteGaussianModel(d=6, N=10)
    rng = np.random.default_rng(42)
    sample = gaussian_sample(rng, 32, 6)
    weights_under_test = [power_exp(0.0), power_exp(0.5), bell_weight(2)]
    violations = 0
    checked = 0
    for u in weights_under_test:
        for _ in range(100):
            phi = random_chaos_vector(model, rng, chaos.ROLE_TEST)
            rep = check_test_bound(phi, u, a=0.1, p=2.0, q=0.0, sample=sample)
            violations += rep.verdict != "consistent"
            checked += 1
        for _ in range(100):
            Phi = random_chaos_vector(model, rng, chaos.ROLE_DISTRIBUTION)
            rep = check_dist_bound(Phi, u, a=0.1, p=0.0, q=2.0, sample=sample)
            violations += rep.verdict != "consistent"
            checked += 1
    elapsed = time.monotonic() - t0
    report(8, violations == 0 and elapsed < 60.0,
           f"{violations} violations in {checked} bound checks (d=6, N=10), "
           f"{elapsed:.1f}s (< 60s)")


def test_09_transform_identities():
    model = FiniteGaussianModel(d=3, N=20)
    rng = np.random.default_rng(7)
    Phi = random_chaos_vector(model, rng, chaos.ROLE_DISTRIBUTION)
    worst_rt = 0.0
    for _ in range(100):
        xi = rng.standard_normal(3) * 0.7
        s = s_transform(Phi, xi)
        worst_rt = max(worst_rt, abs(s_from_t(Phi, xi) - s) / max(abs(s), 1.0))
    worst_cs, worst_tail = 0.0, 0.0
    for _ in range(20):
        eta = rng.standard_normal(3) * 0.6
        xi = rng.standard_normal(3) * 0.6
        z = float(eta @ xi)
        coh = coherent_state(model, eta, role=chaos.ROLE_DISTRIBUTION)
        worst_cs = max(worst_cs, abs(s_transform(coh, xi) - math.exp(z)))
        worst_tail = max(worst_tail, coherent_tail_bound(z, 20))
    ok = worst_rt <= 1e-12 and worst_cs <= 1e-10 and worst_tail < 1e-10
    report(9, ok, f"round-trip {worst_rt:.1e} (tol 1e-12), reproducing "
                  f"{worst_cs:.1e} (tol 1e-10), tail bound {worst_tail:.1e} (< 1e-10)")


def test_10_positive_definiteness():
    rng = np.random.default_rng(11)
    d = 6
    worst = math.inf
    cases = [("grey", lam) for lam in (0.3, 0.5, 0.7, 1.0)] + [("poisson", None)]
    for kind, lam in cases:
        model = MeasureModel(kind=kind, d=d, lam=lam if lam is not None else 1.0)
        for _ in range(50):
            pts = rng.standard_normal((12, d)) * (0.4 / math.sqrt(d))
            rep = measures.check_positive_definite(model.char_fn, pts)
            worst = min(worst, rep.min_eigenvalue)
    report(10, worst >= -1e-8,
           f"min Gram eigenvalue {worst:.2e} (>= -1e-8) over 250 random 12-point sets")


def test_11_grey_sampler_validation():
    worst = 0.0
    for lam in (0.5, 0.7):
        m = MeasureModel(kind="grey", d=6, lam=lam, sampler_seed=13)
        rep = validate_sampler(m, n=100_000)
        worst = max(worst, rep["worst_sigma"])
    report(11, worst <= 4.0,
           f"worst characteristic-function deviation {worst:.2f} sigma (gate 4)")


def test_12_integrability_criteria():
    lam = 0.5
    grey_u = from_callable(
        "grey_admissible", lambda r: 0.5 * (2.0 - lam) * r ** (1.0 / (2.0 - lam)),
        r_max=1e30,
    )
    grey = integrability_check(
        MeasureModel(kind="grey", d=20, lam=lam, sampler_seed=17),
        grey_u, p=1.0, n=100_000,
    )
    poisson = integrability_check(
        MeasureModel(kind="poisson", d=20, intensity=1.0, sampler_seed=17),
        sqrt_log_weight(2), p=1.0, n=100_000,
    )
    gauss = integrability_check(
        MeasureModel(kind="gaussian", d=1, sampler_seed=17),
        from_callable("exp2r", lambda r: 2.0 * r, r_max=1e30), p=0.0, n=100_000,
    )
    ok = (grey.verdict == "converged" and poisson.verdict == "converged"
          and gauss.verdict == "diverging")
    report(12, ok, f"grey={grey.verdict} (cv {grey.cv:.3f}), "
                   f"poisson={poisson.verdict} (cv {poisson.cv:.3f}), "
                   f"gaussian e^(x^2)={gauss.verdict}")


def test_13_determinism():
    def run_cli(extra):
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "verify-all", "--seed", "7", *extra],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    out1 = run_cli([])
    out2 = run_cli([])
    out8 = run_cli(["--threads", "8"])
    ok = out1 == out2 == out8 and json.loads(out1)["seed"] == 7
    report(13, ok, "verify-all --seed 7 byte-identical across two runs "
                   "and thread counts {1, 8}")


def test_13b_determinism_of_configs_with_flags():
    # the config digest must not see anything of the parsed arguments
    # that differs between processes, such as a function's address
    def run_cli(args):
        res = subprocess.run([sys.executable, "-m", "wncalc.cli", *args],
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        return res.stdout

    pd = ["positive-definite", "--model", "grey", "--lambda", "0.6",
          "--points", "4", "--sets", "1"]
    bell = ["bell", "--order", "2", "--count", "6", "--json"]
    ok = run_cli(pd) == run_cli(pd) and run_cli(bell) == run_cli(bell)
    report("13b", ok, "positive-definite and bell --json byte-identical "
                      "across two runs")
