#!/usr/bin/env python3
"""One run of the wncalc benchmark.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 25 --trace 0

Run it from the root of a wncalc checkout.  It imports wncalc from
``src/`` of that checkout, measures set-up time (``import wncalc.cli`` in
fresh interpreters), then runs a single-threaded closed loop with one
client: each operation is one ``wncalc.cli.run(argv)`` verdict written to a
report file, checked by an oracle that shares no code with wncalc.  The
loop starts operations until ``--seconds`` have passed.

Every timing is speed-normalized with bench/speed.py: a shared VM CPU
changes speed within seconds, so each time is rescaled to the speed at
which a fixed reference kernel takes speed.NOMINAL_S, raised to a
per-workload exponent (workloads.SPEED_EXPONENT).  The metrics report
these normalized seconds; the raw wall-clock figures go to the run record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones
from bench/tracer.py.  The full record of the run (environment stamp, one
row per operation with the sha256 of its report bytes, raw and normalized
figures) goes to ``bench/out/<workload>-seed<seed>-trace<t>.json``; a
traced run also writes its spans next to it.
"""

from __future__ import annotations

import os

# one thread per process: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
from workloads import (  # noqa: E402
    SPEED_EXPONENT, TAIL_PERCENTILE, WORKLOADS, operations,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_IMPORTS = 9     # fresh-interpreter imports per run; the median is reported
SETUP_TIMEOUT = 120.0
# Import time follows the speed kernel's time to about the power 0.45-0.56
# (log-log fits over 60 imports each on a 2-core x86-64 VM, kernel timed in
# the importing process), so set-up is normalized with exponent 0.5.
SETUP_SPEED_EXPONENT = 0.5

# The child times the kernel itself, right before and after the import: the
# two cores of a shared VM can run at different speeds, so a kernel timed in
# this process tracks the child's import less closely (log-log correlation
# 0.60-0.80 against 0.81-0.82).  The kernel's source is inlined, because
# importing bench/speed.py would load modules that wncalc.cli loads too.
_IMPORT_PROBE = "\n".join([
    "import math, time",
    f"ITERATIONS = {speed.ITERATIONS}",
    inspect.getsource(speed.kernel),
    f"def boundary(): return sum(kernel() for _ in range({speed.BOUNDARY_REPEATS})) "
    f"/ {speed.BOUNDARY_REPEATS}",
    "before = boundary()",
    "t0 = time.perf_counter()",
    "import wncalc.cli",
    "dt = time.perf_counter() - t0",
    "print(repr(dt), repr(0.5 * (before + boundary())))",
])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations instead of a timed loop")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.ops is not None and args.ops < 1:
        p.error("--ops must be at least 1")
    return args


def measure_setup() -> list[dict]:
    """Raw and normalized seconds to import wncalc.cli in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT, check=True,
        )
        raw, kernel_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        out.append({"raw_s": raw, "kernel_s": kernel_s,
                    "norm_s": speed.normalized(raw, kernel_s, SETUP_SPEED_EXPONENT)})
    return out


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def stamp() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "machine": platform.machine(),
    }


def run_operation(cli, op, report_path: Path, tracer, exponent: float) -> dict:
    """Run one verdict; never raises.  The row says whether it failed."""
    argv = [*op.argv, "--out", str(report_path), "--threads", "1"]
    if report_path.exists():
        report_path.unlink()
    row = {"op": op.index, "kind": op.kind, "argv": op.argv, "exit": None,
           "error": None, "oracle": None, "sha256": None}
    err = io.StringIO()
    before = speed.boundary()
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.run(argv)
                else:
                    code = tracer.call("cli.run", cli.run, argv)
        except Exception as exc:  # a library exception escaping the CLI is a failed verdict
            code = None
            row["error"] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    kernel_s = statistics.fmean([before, *probe.samples, speed.boundary()])
    row["raw_s"] = wall - probe.spent
    row["kernel_s"] = kernel_s
    row["norm_s"] = speed.normalized(row["raw_s"], kernel_s, exponent)
    row["exit"] = code
    if code == 1:
        lines = err.getvalue().strip().splitlines()
        row["error"] = lines[0] if lines else "exit code 1"
    if code in (0, 2):
        data = report_path.read_bytes()
        row["sha256"] = hashlib.sha256(data).hexdigest()
        try:
            row["oracle"] = op.check(json.loads(data))
        except (ValueError, KeyError, TypeError) as exc:
            row["oracle"] = f"malformed report: {type(exc).__name__}: {exc}"
    row["ok"] = row["error"] is None and row["oracle"] is None and code in (0, 2)
    return row


def tail_latency(lat: list[float], percentile: int) -> float:
    """The workload's tail percentile of the latencies, interpolated."""
    if len(lat) < 2:
        return lat[0]
    return statistics.quantiles(lat, n=100, method="inclusive")[percentile - 1]


def figures(rows: list[dict], setup: list[dict], key: str, tail: int) -> dict:
    """End-to-end timing figures from the rows' raw_s or norm_s times."""
    ok = [r[key] for r in rows if r["ok"]] or [r[key] for r in rows]
    return {
        "setup_s": statistics.median(s[key] for s in setup) if setup else None,
        "verdicts_per_s": sum(r["ok"] for r in rows) / sum(r[key] for r in rows),
        "verdict_s_p50": statistics.median(ok),
        "verdict_s_tail": tail_latency(ok, tail),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wncalc" / "cli.py").is_file():
        print(f"error: no wncalc sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()

    setup = measure_setup() if not args.trace else []

    sys.path.insert(0, str(SRC))
    from wncalc import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported wncalc from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    report_path = OUT / f"report-{args.workload}-{os.getpid()}.json"
    rows = []
    t_start = time.perf_counter()
    try:
        for op in operations(args.workload, args.seed):
            if args.ops is not None:
                if op.index >= args.ops:
                    break
            elif time.perf_counter() - t_start >= args.seconds:
                break
            if tracer is not None:
                tracer.op = op.index
            rows.append(run_operation(cli, op, report_path, tracer,
                                      SPEED_EXPONENT[args.workload]))
    finally:
        if report_path.exists():
            report_path.unlink()
    loop_s = time.perf_counter() - t_start

    n_ok = sum(r["ok"] for r in rows)
    misses = sum(r["oracle"] is not None for r in rows)
    failed = len(rows) - n_ok
    tail = TAIL_PERCENTILE[args.workload]
    norm = figures(rows, setup, "norm_s", tail)
    summary = {
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows),
        "oracle_misses": misses,
        "loop_s": loop_s,
        "tail_percentile": tail,
        "tail_successes_above": n_ok * (100 - tail) / 100,
        "failures": sorted({r["error"] or r["oracle"] for r in rows if not r["ok"]}),
        "kernel_s_median": statistics.median(r["kernel_s"] for r in rows),
        "raw": figures(rows, setup, "raw_s", tail),
        "norm": norm,
    }
    if tracer is not None:
        metrics = tracer.metrics(n_ok)
        metrics["trace.verdicts_per_s"] = (norm["verdicts_per_s"], "1/s")
    else:
        metrics = {
            "setup_s": (norm["setup_s"], "s"),
            "verdicts_per_s": (norm["verdicts_per_s"], "1/s"),
            "verdict_s_p50": (norm["verdict_s_p50"], "s"),
            "verdict_s_tail": (norm["verdict_s_tail"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(base.with_suffix(".spans.jsonl"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": args.ops,
        "stamp": {**stamp(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "setup": setup, "summary": summary, "metrics": metrics, "operations": rows,
    }
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {n_ok}/{len(rows)} verdicts ok in "
          f"{loop_s:.1f} s, failures: {summary['failures']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
