"""Command-line entry point.

Each subcommand runs one family of verifications (the README names the library
checks that have none); all reports are JSON on stdout (``--out`` redirects to a
file).  Exit code 0 means every verdict in the report is consistent/converged, 2
flags a verdict failure, 1 a usage or config error or a computation the library
refuses (an unbounded transform, a value past a double, a sampler that fails
validation), reported as one ``error: ...`` line on stderr.

Reports are byte-identical for the same resolved config and seed: keys
are sorted, floats use repr, and wall time goes to stderr so it never
perturbs the report bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import chaos, legendre, measures, sequences, weights
from .weights import CONSISTENT, VIOLATED

_GOOD_VERDICTS = {CONSISTENT, measures.VERDICT_CONVERGED}
_VERDICT_KEYS = {
    "verdict", "in_C_plus_log", "in_C_plus_half", "in_C_plus_half_one",
    "log_x2_convex",
}

ENV_SEED = "WNCALC_SEED"


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if not f.name.startswith("_")}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _collect_verdicts(tree, out):
    if isinstance(tree, dict):
        for k, v in tree.items():
            if k in _VERDICT_KEYS and isinstance(v, str):
                out.append(v)
            else:
                _collect_verdicts(v, out)
    elif isinstance(tree, list):
        for v in tree:
            _collect_verdicts(v, out)


def _digest(config: dict) -> str:
    blob = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _weight_from_args(args) -> tuple[weights.WeightFunction, dict]:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        return weights.from_config(cfg), cfg
    cfg = {"family": args.family, "params": {}, "r_max": getattr(args, "r_max", None)}
    if args.family == "power_exp":
        cfg["params"]["beta"] = args.beta
    elif args.family in ("bell", "sqrt_log"):
        cfg["params"]["k"] = args.order
    return weights.from_config(cfg), cfg


def _at_least(args, flag: str, k: int) -> None:
    """Refuse a count below k, the least the run can grade or run with."""
    value = getattr(args, flag)
    if value < k:
        raise ValueError(f"--{flag} must be >= {k}, got {value}")


def _add_weight_flags(p):
    p.add_argument("--family", choices=["power_exp", "bell", "sqrt_log"],
                   default="power_exp")
    p.add_argument("--beta", type=float, default=0.0,
                   help="beta for the power_exp family")
    p.add_argument("--order", type=int, default=2,
                   help="k for the bell / sqrt_log families")
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    p.add_argument("--config", help="weight config JSON {family, params, r_max}")


# ---------------------------------------------------------------------------
# subcommand bodies (each returns a JSON-able results tree)


def _cmd_classify(args, seed):
    u, cfg = _weight_from_args(args)
    rep = weights.classify(u, r_max=args.classify_r_max)
    out = _jsonable(rep)
    if not args.full:
        out.pop("ratios", None)
    return {"weight": _jsonable(u), "membership": out}, cfg


def _cmd_legendre(args, seed):
    _at_least(args, "nmax", 0)
    u, cfg = _weight_from_args(args)
    t_grid = [float(t) for t in range(args.nmax + 1)]
    res = legendre.legendre_transform(u, t_grid)
    table = {"t_grid": t_grid, "log_ell": res.log_value.tolist(), "argmin_r": res.arg_r.tolist(),
             "optimizer_status": res.status.tolist()}
    if args.csv:
        lines = [f"{t!r},{math.exp(v) if v < 700 else math.inf!r},{r!r},{s}\n"
                 for t, v, r, s in zip(*table.values())]
        return {"csv": "".join(["t,ell,argmin_r,status\n", *lines])}, cfg
    return {"weight": _jsonable(u), "table": table}, cfg


def _cmd_dual(args, seed):
    _at_least(args, "points", 1)
    u, cfg = _weight_from_args(args)
    if not 0.0 < args.r_lo <= args.r_hi < math.inf:
        raise ValueError("need finite radii 0 < --r-lo <= --r-hi,"
                         f" got {args.r_lo!r} and {args.r_hi!r}")
    rs = np.geomspace(args.r_lo, args.r_hi, args.points)
    res = legendre.dual_function(u, rs)
    return {"weight": _jsonable(u), "r": rs.tolist(), "log_ustar": res.log_value.tolist(),
            "argmax_s": res.arg_r.tolist()}, cfg


def _cmd_duality(args, seed):
    u, cfg = _weight_from_args(args)
    rep = legendre.verify_dual_sequence(u, args.nmax)
    return {"weight": _jsonable(u), "equivalence": _jsonable(rep)}, cfg


def _cmd_bell(args, seed):
    _at_least(args, "count", 1)
    seq = sequences.bell_numbers(args.order, args.count - 1)
    if args.json:
        return ({"order": args.order, "log_values": seq.log_values},
                {"order": args.order, "count": args.count, "json": True})
    if seq.exact_values is not None and args.order <= 2:
        lines = [str(v) for v in seq.exact_values]
    else:
        lines = [repr(math.exp(v)) for v in seq.log_values]
    return {"_plain": "\n".join(lines)}, {"order": args.order, "count": args.count}


def _cmd_weights_admissible(args, seed):
    _at_least(args, "nmax", 20)  # check_A2's floor
    u, cfg = _weight_from_args(args)
    alpha = sequences.alpha_from_u(u, args.nmax)
    a1 = sequences.check_A1(alpha)
    a2 = sequences.check_A2(alpha)
    return {
        "weight": _jsonable(u),
        "A1": _jsonable(a1),
        "A2": _jsonable(a2),
        "log_alpha": alpha.log_values,
    }, cfg


def _damping(model):
    """1/n! per multi-index of degree n: damps high degrees so norms stay in range."""
    return np.exp(-model.log_factorials[model.degrees])


def _random_vector(model, rng, role, damp):
    """(a + 1j*b) * damp for two standard-normal draws a, b of K entries each,
    taken as one (2, K) draw and multiplied plane by plane, with the same bits."""
    g = rng.standard_normal((2, model.n_coeffs))
    c = np.empty(model.n_coeffs, dtype=complex)
    c.real = g[0] * damp
    c.imag = g[1] * damp
    return chaos.ChaosVector(model=model, coeffs=c, role=role)


def _cmd_chaos_bounds(args, seed):
    _at_least(args, "vectors", 1)
    u, cfg = _weight_from_args(args)
    model = chaos.FiniteGaussianModel(d=args.dim, N=args.degree)
    rng = np.random.default_rng(seed)
    sample = chaos.gaussian_sample(rng, args.sample_per_scale, args.dim)
    damp = _damping(model)
    # the test-side draws are used up before the distribution side draws its own
    def draws(role):
        return (_random_vector(model, rng, role, damp) for _ in range(args.vectors))

    reports = {
        "test": _jsonable(chaos.check_test_bound(draws(chaos.ROLE_TEST), u, args.a,
                                                 p=args.p, q=args.q, sample=sample)),
        "distribution": _jsonable(chaos.check_dist_bound(draws(chaos.ROLE_DISTRIBUTION), u,
                                                         args.a, p=args.q, q=args.p,
                                                         sample=sample)),
    }
    return {"weight": _jsonable(u), "model": {"d": args.dim, "N": args.degree},
            "reports": reports}, cfg


def _measure_from_args(args, seed) -> measures.MeasureModel:
    return measures.MeasureModel(
        kind=args.model, d=args.dim, lam=args.lam,
        intensity=args.intensity, sampler_seed=seed,
    )


def _cmd_positive_definite(args, seed):
    _at_least(args, "sets", 1)
    model = _measure_from_args(args, seed)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(args.sets):
        pts = rng.standard_normal((args.points, args.dim)) / math.sqrt(args.dim)
        reports.append(_jsonable(
            measures.check_positive_definite(model.char_fn, pts, tol=args.tol)
        ))
    config = {"model": args.model, "lam": args.lam, "intensity": args.intensity,
              "dim": args.dim, "points": args.points, "sets": args.sets, "tol": args.tol}
    return {"model": _jsonable(model), "gram_reports": reports}, config


def _cmd_integrability(args, seed):
    model = _measure_from_args(args, seed)
    u, cfg = _weight_from_args(args)
    rep = measures.integrability_check(
        model, u, p=args.p, n=args.samples, threads=args.threads,
    )
    out = _jsonable(rep)
    if args.batch_csv:
        out["batch_csv"] = "batch,mean\n" + "\n".join(
            f"{i},{m!r}" for i, m in enumerate(rep.batch_means)
        ) + "\n"
    return {"measure": _jsonable(model), "weight": _jsonable(u),
            "integrability": out}, {"measure": _jsonable(model), "weight_cfg": cfg}


def _cmd_verify_all(args, seed):
    """Reduced deterministic suite touching every module verdict."""
    results = {}

    v0 = weights.power_exp(0.0)
    results["classify"] = _jsonable(weights.classify(v0, r_max=1e6))
    results["classify"].pop("ratios", None)

    results["duality"] = _jsonable(legendre.verify_dual_sequence(v0, 20))

    bell = sequences.bell_numbers(2, 10)
    triangle = _bell_triangle(10)
    results["bell_exact"] = {
        "verdict": CONSISTENT if bell.exact_values == triangle else VIOLATED,
        "values": [str(v) for v in bell.exact_values],
    }

    alpha = sequences.alpha_from_u(weights.power_exp(0.5), 40)
    results["admissible"] = {
        "A1": _jsonable(sequences.check_A1(alpha)),
        "A2": _jsonable(sequences.check_A2(alpha)),
    }

    model = chaos.FiniteGaussianModel(d=4, N=6)
    rng = np.random.default_rng(seed)
    sample = chaos.gaussian_sample(rng, 16, 4)
    damp = _damping(model)
    # drawn in (phi, Phi) pairs, then checked one side at a time
    phis, Phis = zip(*[(_random_vector(model, rng, chaos.ROLE_TEST, damp),
                        _random_vector(model, rng, chaos.ROLE_DISTRIBUTION, damp))
                       for _ in range(5)])
    results["chaos_bounds"] = {
        "test": _jsonable(chaos.check_test_bound(phis, v0, 0.1, p=2, q=0, sample=sample)),
        "distribution": _jsonable(chaos.check_dist_bound(Phis, v0, 0.1, p=0, q=2,
                                                         sample=sample)),
    }

    grey = measures.MeasureModel(kind=measures.KIND_GREY, d=6, lam=0.5,
                                 sampler_seed=seed)
    pts = np.random.default_rng(seed).standard_normal((8, 6)) / math.sqrt(6)
    results["positive_definite"] = _jsonable(
        measures.check_positive_definite(grey.char_fn, pts)
    )

    lam = grey.lam
    u_int = weights.WeightFunction(
        "grey_admissible",
        lambda r: 0.5 * (2.0 - lam) * weights.libm_map(pow, r, 1.0 / (2.0 - lam)),
        r_max=1e30, params={"lam": lam},
    )
    results["integrability"] = _jsonable(measures.integrability_check(
        grey, u_int, p=1.0, n=20_000, threads=args.threads,
    ))

    return results, {"seed": seed, "suite": "verify-all"}


def _bell_triangle(n_max: int) -> list:
    row = [1]
    out = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wncalc",
                                description="weight-function calculus verifications")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${ENV_SEED} or 0)")
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--threads", type=int, default=1)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("classify", help="growth-class membership")
    _add_weight_flags(sp)
    sp.add_argument("--grid-r-max", dest="classify_r_max", type=float, default=None)
    sp.add_argument("--full", action="store_true", help="include ratio grids")
    sp.set_defaults(fn=_cmd_classify)

    sp = add_parser("legendre", help="Legendre transform table")
    _add_weight_flags(sp)
    sp.add_argument("--nmax", type=int, default=30)
    sp.add_argument("--csv", action="store_true", help="emit the table as CSV")
    sp.set_defaults(fn=_cmd_legendre)

    sp = add_parser("dual", help="dual Legendre function on a grid")
    _add_weight_flags(sp)
    sp.add_argument("--r-lo", type=float, default=1e-2)
    sp.add_argument("--r-hi", type=float, default=1e4)
    sp.add_argument("--points", type=int, default=64)
    sp.set_defaults(fn=_cmd_dual)

    sp = add_parser("duality", help="dual-sequence relation check")
    _add_weight_flags(sp)
    sp.add_argument("--nmax", type=int, default=30)
    sp.set_defaults(fn=_cmd_duality)

    sp = add_parser("bell", help="higher-order Bell numbers")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--json", action="store_true", help="JSON with log-values")
    sp.set_defaults(fn=_cmd_bell)

    sp = add_parser("weights-admissible", help="(A1)/(A2) checks for alpha(n)")
    _add_weight_flags(sp)
    sp.add_argument("--nmax", type=int, default=40)
    sp.set_defaults(fn=_cmd_weights_admissible)

    sp = add_parser("chaos-bounds", help="S-transform growth-bound suites")
    _add_weight_flags(sp)
    sp.add_argument("--dim", type=int, default=4)
    sp.add_argument("--degree", type=int, default=6)
    sp.add_argument("--vectors", type=int, default=20)
    sp.add_argument("--a", type=float, default=0.1)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=0.0)
    sp.add_argument("--sample-per-scale", type=int, default=32)
    sp.set_defaults(fn=_cmd_chaos_bounds)

    sp = add_parser("positive-definite", help="Gram test of a characteristic functional")
    sp.add_argument("--model", choices=["gaussian", "grey", "poisson"], required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--intensity", type=float, default=1.0)
    sp.add_argument("--dim", type=int, default=6)
    sp.add_argument("--points", type=int, default=12)
    sp.add_argument("--sets", type=int, default=10)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(fn=_cmd_positive_definite)

    sp = add_parser("integrability", help="Monte Carlo Hida-measure integrability")
    _add_weight_flags(sp)
    sp.add_argument("--model", choices=["gaussian", "grey", "poisson"], required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--intensity", type=float, default=1.0)
    sp.add_argument("--dim", type=int, default=20)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--batch-csv", action="store_true")
    sp.set_defaults(fn=_cmd_integrability)

    sp = add_parser("verify-all", help="reduced deterministic verification suite")
    sp.set_defaults(fn=_cmd_verify_all)

    return p


# built once per process: parse_args keeps no state between calls
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(ENV_SEED, "0"))
    t0 = time.monotonic()
    try:
        _at_least(args, "threads", 1)
        results, config = args.fn(args, seed)
    except (ValueError, KeyError, OSError, ArithmeticError,
            measures.SamplerValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0

    if "_plain" in results:
        text = results["_plain"] + "\n"
        verdicts = []
    else:
        report = {
            "subcommand": args.subcommand,
            "seed": seed,
            "config_digest": _digest({"config": config, "seed": seed}),
            "results": results,
        }
        text = json.dumps(report, sort_keys=True, separators=(",", ": "),
                          indent=1) + "\n"
        verdicts = []
        _collect_verdicts(results, verdicts)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall_time: {wall:.3f} s", file=sys.stderr)

    if any(v not in _GOOD_VERDICTS for v in verdicts):
        return 2
    return 0


def main():  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
