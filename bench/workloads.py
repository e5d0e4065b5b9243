"""Workload inputs and output oracles for the wncalc benchmark.

Each workload turns a benchmark seed into an endless, deterministic stream
of ``wncalc`` argument vectors, one per operation, and checks each report
with an oracle.  The oracles use only the standard library: closed forms,
exact integers and the theorem-level verdicts the paper guarantees.  They
share no code with ``wncalc``.

Continuous parameters come from a Weyl sequence frac(u0 + j * (sqrt5 - 1)/2)
with a seeded offset u0.  Its prefixes are evenly spread over [0, 1), so the
mix of cheap and expensive operations barely changes with the seed or with
where the time limit cuts the run.  That keeps run-to-run spread low without
narrowing the parameter ranges; only grey integrability stops short of the
two lambda regions where wncalc answers wrongly (GREY_INT_LAMBDA).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# every BELL_EVERY-th operation of duality_sweep and chaos_bounds uses bell(2)
BELL_EVERY = 5

# oracle tolerances (see bench/README.md for where each comes from)
RHO_TOL = 1e-5
GRAM_TOL = 1e-8

CHAOS_ARGS = ["chaos-bounds", "--dim", "6", "--degree", "10", "--vectors", "100"]
CHAOS_VECTORS = 100
VERIFY_ALL_BOUNDS = 5
# verify-all: four classify verdicts, duality, A1, A2, positive_definite,
# bell_exact; its duality check runs power_exp(0) up to n = 20
VERIFY_ALL_VERDICTS = 9
VERIFY_ALL_NMAX = 20
DUAL_NMAX = 30
GREY_SETS = 2
GREY_GRAM_LAMBDA = (0.25, 1.0)
# Integrability stays inside [0.06, 0.97), where wncalc answers correctly at
# CLI seed 0.  Below about 0.058 the Mittag-Leffler error (ROADMAP item 3)
# lifts the sampler check's worst deviation from 2.1 sigma to its 4 sigma gate
# at 0.046; from 0.9843 the Kanter sampler draws NaN and the verdict reads
# diverging.  Both defects are reproduced by ``suite.py defects`` instead.
GREY_INT_LAMBDA = (0.06, 0.97)
DUAL_BETA = (0.0, 0.5)
# Grey operations keep the CLI's default seed, so their Gram points and
# sampler stream are fixed and the workload seed draws lambda alone.  At a
# fixed lambda the cost varies sixfold with the point set (0.6-3.8 s for
# integrability at lambda = 0.03), which no 25 s run can average out.
GREY_CLI_SEED = 0

# How strongly an operation's time follows the speed kernel's time (see
# bench/speed.py).  Fitted as the slope of log latency on log kernel time
# within one operation kind (and, for grey_measures, narrow lambda bins),
# over ten 25 s runs per workload on a 2-core x86-64 VM.  The fits are
# 0.84-0.96 for the optimizer-bound workloads, whose work is mostly
# interpreted Python, and these keep 1: noise in the kernel's own timing
# biases a fitted slope low.  grey_measures fits 0.67-0.73, since its Gram
# eigenvalues and 100 000-sample batches run in numpy.
SPEED_EXPONENT = {"verify_all": 1.0, "duality_sweep": 1.0, "chaos_bounds": 1.0,
                  "grey_measures": 0.7}

# verdict_s_tail: the highest whole percentile that leaves at least 10
# successful operations above it at the fewest successes a 25 s run has
# shown (verify_all 19, duality_sweep 24, chaos_bounds 10, grey_measures 81).
# Below 21 successes no percentile above the median qualifies.
TAIL_PERCENTILE = {"verify_all": 50, "duality_sweep": 58, "chaos_bounds": 50,
                   "grey_measures": 87}


@dataclass(frozen=True)
class Operation:
    index: int
    argv: list
    kind: str          # short label of the operation type
    check: Callable[[dict], str | None]  # None when the report passes


def _weyl(rng: random.Random) -> Iterator[float]:
    u0 = rng.random()
    for j in itertools.count():
        yield (u0 + j * _GOLDEN) % 1.0


# ---------------------------------------------------------------------------
# oracles


def bell_numbers_exact(n_max: int) -> list[int]:
    """Bell numbers B_0..B_n_max by B_{n+1} = sum_k C(n, k) B_k."""
    b = [1]
    for n in range(n_max):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b


def _log_factorial(n: int) -> float:
    return math.fsum(math.log(k) for k in range(2, n + 1))


def power_exp_rho(n: int) -> float:
    """Closed form of log(ell_u(n) ell_u*(n) (n!)^2) for u = power_exp(beta).

    ell_u(n) = (e/n)^((1+beta) n) and ell_u*(n) = (e/n)^((1-beta) n); the
    beta terms cancel in the product.
    """
    if n == 0:
        return 0.0
    return 2.0 * n * (1.0 - math.log(n)) + 2.0 * _log_factorial(n)


def _check_bounds(block: dict, expected: int) -> str | None:
    for side in ("test", "distribution"):
        rows = block.get(side, [])
        if len(rows) != expected:
            return f"{side}: {len(rows)} bound reports, expected {expected}"
        bad = [r.get("verdict") for r in rows if r.get("verdict") != "consistent"]
        if bad:
            return f"{side}: {len(bad)} bound verdicts not consistent ({bad[0]})"
    return None


def _check_rho(rho: list, n_max: int) -> str | None:
    worst = max(abs(r - power_exp_rho(n)) for n, r in enumerate(rho))
    if len(rho) != n_max + 1 or not worst <= RHO_TOL:
        return f"rho off its closed form by {worst:.3g} (n_max {len(rho) - 1})"
    return None


def check_verify_all(report: dict) -> str | None:
    res = report["results"]
    verdicts = {
        **{f"classify.{k}": v for k, v in res["classify"].items() if k != "r_max"},
        "duality": res["duality"]["verdict"],
        "admissible.A1": res["admissible"]["A1"]["verdict"],
        "admissible.A2": res["admissible"]["A2"]["verdict"],
        "positive_definite": res["positive_definite"]["verdict"],
        "bell_exact": res["bell_exact"]["verdict"],
    }
    if len(verdicts) != VERIFY_ALL_VERDICTS:
        return f"{len(verdicts)} fixed verdicts, expected {VERIFY_ALL_VERDICTS}"
    bad = {k: v for k, v in verdicts.items() if v != "consistent"}
    if bad:
        return f"verdicts not consistent: {bad}"
    miss = _check_rho(res["duality"]["rho"], VERIFY_ALL_NMAX)
    if miss:
        return "duality " + miss
    low = res["positive_definite"]["min_eigenvalue"]
    if not low >= -GRAM_TOL:
        return f"positive_definite minimum eigenvalue {low!r} < -{GRAM_TOL}"
    if res["integrability"]["verdict"] == "diverging":
        return "integrability verdict diverging"
    miss = _check_bounds(res["chaos_bounds"], VERIFY_ALL_BOUNDS)
    if miss:
        return "chaos_bounds " + miss
    want = [str(v) for v in bell_numbers_exact(10)]
    got = res["bell_exact"]["values"]
    if got != want:
        return f"bell_exact {got} != {want}"
    return None


def check_duality_power_exp(report: dict) -> str | None:
    eq = report["results"]["equivalence"]
    if eq["verdict"] != "consistent":
        return "dual-sequence verdict " + eq["verdict"]
    return _check_rho(eq["rho"], DUAL_NMAX)


def check_duality_bell(report: dict) -> str | None:
    eq = report["results"]["equivalence"]
    if eq["verdict"] != "consistent":
        return "dual-sequence verdict " + eq["verdict"]
    if len(eq["rho"]) != DUAL_NMAX + 1:
        return f"rho has {len(eq['rho'])} entries"
    return None


def check_chaos(report: dict) -> str | None:
    return _check_bounds(report["results"]["reports"], CHAOS_VECTORS)


def check_gram(report: dict) -> str | None:
    rows = report["results"]["gram_reports"]
    if len(rows) != GREY_SETS:
        return f"{len(rows)} Gram reports, expected {GREY_SETS}"
    low = min(r["min_eigenvalue"] for r in rows)
    if not low >= -GRAM_TOL:
        return f"Gram minimum eigenvalue {low!r} < -{GRAM_TOL}"
    return None


def check_integrability(report: dict) -> str | None:
    verdict = report["results"]["integrability"]["verdict"]
    if verdict == "diverging":
        return "integrability verdict diverging at beta = 1 - lambda"
    return None


# ---------------------------------------------------------------------------
# operation streams


def _weight_argv(i: int, beta: Iterator[float]) -> tuple[list, str]:
    if i % BELL_EVERY == BELL_EVERY - 1:
        return ["--family", "bell", "--order", "2"], "bell2"
    lo, hi = DUAL_BETA
    b = lo + (hi - lo) * next(beta)
    return ["--family", "power_exp", "--beta", repr(b)], "power_exp"


def _verify_all(rng: random.Random) -> Iterator[Operation]:
    for i in itertools.count():
        seed = rng.randrange(2**31)
        yield Operation(i, ["verify-all", "--seed", str(seed)], "verify-all",
                        check_verify_all)


def _duality_sweep(rng: random.Random) -> Iterator[Operation]:
    beta = _weyl(rng)
    for i in itertools.count():
        seed = rng.randrange(2**31)
        w, kind = _weight_argv(i, beta)
        check = check_duality_bell if kind == "bell2" else check_duality_power_exp
        yield Operation(i, ["duality", "--nmax", str(DUAL_NMAX), *w, "--seed", str(seed)],
                        "duality/" + kind, check)


def _chaos_bounds(rng: random.Random) -> Iterator[Operation]:
    beta = _weyl(rng)
    for i in itertools.count():
        seed = rng.randrange(2**31)
        w, kind = _weight_argv(i, beta)
        yield Operation(i, [*CHAOS_ARGS, *w, "--seed", str(seed)],
                        "chaos-bounds/" + kind, check_chaos)


def _grey_measures(rng: random.Random) -> Iterator[Operation]:
    gram_q, int_q = _weyl(rng), _weyl(rng)
    seed = str(GREY_CLI_SEED)
    for i in itertools.count():
        if i % 2 == 0:
            lo, hi = GREY_GRAM_LAMBDA
            lam = lo + (hi - lo) * next(gram_q)
            argv = ["positive-definite", "--model", "grey", "--lambda", repr(lam),
                    "--points", "8", "--sets", str(GREY_SETS), "--seed", seed]
            yield Operation(i, argv, "positive-definite", check_gram)
        else:
            lo, hi = GREY_INT_LAMBDA
            yield grey_integrability(i, lo * (hi / lo) ** next(int_q))


def grey_integrability(i: int, lam: float) -> Operation:
    argv = ["integrability", "--model", "grey", "--lambda", repr(lam),
            "--beta", repr(1.0 - lam), "--samples", "100000",
            "--seed", str(GREY_CLI_SEED)]
    return Operation(i, argv, "integrability", check_integrability)


# One grey integrability operation inside each known-defect region that
# GREY_INT_LAMBDA leaves out; ``suite.py defects`` runs them.
DEFECT_LAMBDAS = (0.03, 0.99)


WORKLOADS = {
    "verify_all": _verify_all,
    "duality_sweep": _duality_sweep,
    "chaos_bounds": _chaos_bounds,
    "grey_measures": _grey_measures,
}


def operations(workload: str, seed: int) -> Iterator[Operation]:
    """The deterministic operation stream of a workload for a seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
