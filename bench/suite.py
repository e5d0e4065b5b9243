#!/usr/bin/env python3
"""Multi-run commands of the wncalc benchmark, run from a checkout root.

    python3 bench/suite.py all
        Every workload once untraced and once traced.  Prints one row per
        workload with every end-to-end metric by name and unit, the failed
        share, whether both runs were correct and the tracing overhead (untraced
        minus traced verdicts_per_s); then one row per workload of the raw
        wall-clock figures behind the speed-normalized ones.

    python3 bench/suite.py spread --workload W [--seeds 1-10]
        Repeated untraced runs on different seeds.  Prints, per end-to-end
        metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 bench/suite.py selftest
        Two traced runs with the same seed and SELFTEST_OPS operations per
        workload; the count metrics must repeat exactly.  Exit code 1 if not.

    python3 bench/suite.py defects
        Runs one grey integrability operation in each known-defect lambda
        region that grey_measures leaves out (workloads.DEFECT_LAMBDAS) and
        prints whether wncalc still gets it wrong.  Information only: the
        exit code is 0 either way.

    python3 bench/suite.py compare OLD_DIR NEW_DIR
        Lists operations whose report bytes (sha256) differ between the run
        records of two commits, matched by workload, seed and operation.
        Information only: the exit code is 0 either way.

Each run is a fresh ``bench/run.py`` interpreter, so no memo state carries
from one run to the next.  ``all`` and ``selftest`` use seed SEED, and every
timed run lasts ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import COUNT_METRICS  # noqa: E402
from workloads import DEFECT_LAMBDAS, WORKLOADS, grey_integrability  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"
OUT = Path.cwd() / "bench" / "out"
E2E = ["setup_s", "verdicts_per_s", "verdict_s_p50", "verdict_s_tail", "peak_rss_mb"]
RUN_TIMEOUT = 600.0
SEED = 1
SELFTEST_OPS = 2
RUN_SECONDS = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int,
             ops: int | None = None) -> tuple[dict, dict]:
    """One fresh run.py interpreter: its result line and its run record."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cmd_all(args) -> int:
    rows, raw_rows, bad = [], [], False
    for w in WORKLOADS:
        plain, record = run_once(w, SEED, RUN_SECONDS, 0)
        traced, _ = run_once(w, SEED, RUN_SECONDS, 1)
        m = plain["metrics"]
        overhead = (m["verdicts_per_s"]["value"]
                    - traced["metrics"]["trace.verdicts_per_s"]["value"])
        ok = plain["correct"] and traced["correct"]
        bad |= not ok
        cells = [f"{k}={m[k]['value']:.4g} {m[k]['unit']}" for k in E2E]
        rows.append(f"{w:<14} attempted={plain['attempted']} failed={plain['failed']} "
                    f"failed_frac={plain['failed'] / plain['attempted']:.3f} "
                    f"correct={ok}  " + "  ".join(cells)
                    + f"  trace_overhead={overhead:.4g} 1/s")
        raw = record["summary"]["raw"]
        raw_rows.append(f"{w:<14} " + "  ".join(
            f"{k}={raw[k]:.4g} {m[k]['unit']}" for k in E2E if k in raw))
    print("speed-normalized (the benchmark's metrics):")
    print("\n".join(rows))
    print("raw wall clock:")
    print("\n".join(raw_rows))
    if bad:
        print("failed operation or oracle miss: see bench/out/*.json", file=sys.stderr)
    return 1 if bad else 0


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_spread(args) -> int:
    runs = [run_once(args.workload, s, RUN_SECONDS, 0)[0] for s in _seeds(args.seeds)]
    for r in runs:
        print(json.dumps(r), flush=True)
    print(f"{args.workload}: {len(runs)} runs, failed {[r['failed'] for r in runs]} "
          f"of {[r['attempted'] for r in runs]}")
    for k in E2E:
        med, sp = spread([r["metrics"][k]["value"] for r in runs])
        print(f"  {k:<16} median {med:.6g} {runs[0]['metrics'][k]['unit']:<5} "
              f"spread {sp:.4f}")
    return 0


def cmd_selftest(args) -> int:
    bad = []
    for w in WORKLOADS:
        a, b = (run_once(w, SEED, 1, 1, ops=SELFTEST_OPS)[0] for _ in range(2))
        diff = [f"{w} {k}: {a['metrics'][k]['value']!r} != {b['metrics'][k]['value']!r}"
                for k in COUNT_METRICS
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        print(f"{w}: {'MISMATCH' if diff else 'ok'} "
              f"(log_eval calls {a['metrics']['weights.log_eval.calls']['value']:.6g}"
              f" per verdict)")
        bad += diff
    for line in bad:
        print(line)
    return 1 if bad else 0


def cmd_defects(args) -> int:
    import run
    sys.path.insert(0, str(run.SRC))
    from wncalc import cli

    OUT.mkdir(parents=True, exist_ok=True)
    report = OUT / "report-defects.json"
    for i, lam in enumerate(DEFECT_LAMBDAS):
        row = run.run_operation(cli, grey_integrability(i, lam), report, None, 1.0)
        status = row["error"] or row["oracle"] or "passes its oracle (defect fixed)"
        print(f"lambda={lam}: {status}")
    report.unlink(missing_ok=True)
    return 0


def _records(path: Path) -> dict:
    out = {}
    for f in sorted(path.glob("*-trace*.json")):
        rec = json.loads(f.read_text())
        for row in rec["operations"]:
            if row["sha256"]:
                key = (rec["workload"], rec["seed"], row["op"])
                out[key] = (row["sha256"], " ".join(row["argv"]))
    return out


def cmd_compare(args) -> int:
    old, new = _records(Path(args.old)), _records(Path(args.new))
    shared = sorted(set(old) & set(new))
    changed = [k for k in shared if old[k][0] != new[k][0]]
    for k in changed:
        print(f"changed  {k[0]} seed {k[1]} op {k[2]}: wncalc {new[k][1]}")
    print(f"{len(changed)} of {len(shared)} shared operations changed report bytes")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="wncalc benchmark suite")
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("all").set_defaults(fn=cmd_all)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    sp.add_argument("--seeds", default="1-10")
    sp.set_defaults(fn=cmd_spread)
    sub.add_parser("selftest").set_defaults(fn=cmd_selftest)
    sub.add_parser("defects").set_defaults(fn=cmd_defects)
    sp = sub.add_parser("compare")
    sp.add_argument("old")
    sp.add_argument("new")
    sp.set_defaults(fn=cmd_compare)
    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
