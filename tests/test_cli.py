import hashlib
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from wncalc import cli
from wncalc.cli import run


def run_cli(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestBell:
    def test_prints_exact_values_one_per_line(self, capsys):
        code, out = run_cli(["bell", "--order", "2", "--count", "6"], capsys)
        assert code == 0
        assert out.split() == ["1", "1", "2", "5", "15", "52"]

    def test_json_mode_emits_log_values(self, capsys):
        code, out = run_cli(["bell", "--order", "3", "--count", "4", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["log_values"]) == 4


class TestExitCodes:
    def test_consistent_report_exits_zero(self, capsys):
        code, _ = run_cli(["classify", "--family", "power_exp", "--beta", "0"], capsys)
        assert code == 0

    def test_verdict_failure_exits_two(self, capsys):
        # too-short range: drift between head and tail flags the relation
        code, out = run_cli(
            ["duality", "--family", "power_exp", "--beta", "0.5", "--nmax", "12"],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["results"]["equivalence"]["verdict"] == "violated"

    @pytest.mark.parametrize("argv", [["duality", "--nmax", "30"], ["chaos-bounds"]],
                             ids=["duality", "chaos-bounds"])
    def test_beta_past_one_half_gives_a_verdict(self, capsys, argv):
        # the dual's maximizer at the first knots of u* lies below the solver's range
        code, out = run_cli([*argv, "--family", "power_exp", "--beta", "0.55"], capsys)
        assert code == 0
        assert json.loads(out)["results"]

    def test_usage_error_exits_one(self, capsys):
        assert run(["no-such-subcommand"]) == 1
        assert run(["bell", "--order", "2"]) == 1  # missing --count

    def test_config_error_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "w.json"
        bad.write_text('{"family": "martian"}')
        code, _ = run_cli(["classify", "--config", str(bad)], capsys)
        assert code == 1

    def test_unbounded_transform_exits_one_with_one_line(self, capsys):
        # the infimum for t >= 7 still decreases at r_max = 10
        assert run(["legendre", "--r-max", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: inf of power_exp")
        assert captured.err.count("\n") == 1

    def test_unbounded_dual_names_the_search_limit(self, capsys):
        # sqrt_log(2) grows faster than every exp(c sqrt(s)), but the maximizer
        # s* ~ e^(2r) passes r_max = 1e30 from r ~ 35 on
        assert run(["dual", "--family", "sqrt_log"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sup of exp(2 sqrt(")
        assert "the maximizer lies beyond the search limit r_max" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["integrability", "--model", "poisson", "--intensity", "0"],
        ["positive-definite", "--model", "poisson", "--intensity", "nan"],
        ["integrability", "--model", "poisson", "--intensity", "-1"],
    ])
    def test_bad_poisson_intensity_exits_one_with_one_line(self, capsys, argv):
        # rejected with the model, before a sampler or a Gram matrix reads it
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Poisson intensity must be in (0, inf)\n"

    @pytest.mark.parametrize("flags, message", [
        (["--a", "nan"], "check_test_bound needs a finite a >= 0, got nan"),
        (["--a", "-0.1"], "check_test_bound needs a finite a >= 0, got -0.1"),
        (["--sample-per-scale", "0"], "the probe sample has no rows"),
        (["--vectors", "-1"], "--vectors must be >= 1, got -1"),
    ])
    def test_bad_chaos_bounds_argument_exits_one_with_one_line(self, capsys, flags,
                                                                message):
        argv = ["chaos-bounds", "--dim", "2", "--degree", "3", "--vectors", "2", *flags]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["positive-definite", "--model", "gaussian", "--sets", "0"], "--sets must be >= 1, got 0"),
        (["legendre", "--nmax", "-1"], "--nmax must be >= 0, got -1"),
        (["dual", "--points", "0"], "--points must be >= 1, got 0"),
        (["chaos-bounds", "--vectors", "0"], "--vectors must be >= 1, got 0"),
    ])
    def test_an_empty_suite_exits_one_with_one_line(self, capsys, argv, message):
        # each of these ran nothing and exited 0 with an empty report
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["integrability", "--model", "gaussian", "--threads", "-3"],
         "--threads must be >= 1, got -3"),
        (["bell", "--order", "2", "--count", "0"], "--count must be >= 1, got 0"),
        (["weights-admissible", "--nmax", "-1"], "--nmax must be >= 20, got -1"),
        (["weights-admissible", "--nmax", "19"], "--nmax must be >= 20, got 19"),
    ])
    def test_a_count_below_its_floor_names_its_flag(self, capsys, argv, message):
        # a thread count below 1 ran serially; the others named the library's
        # n_max, or reported numpy's empty reduction
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_count_past_its_ceiling_names_its_flag(self, capsys):
        # it named the library's n_max = count - 1
        assert run(["bell", "--order", "2", "--count", "600"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --count must be <= 513, got 600\n"

    @pytest.mark.parametrize("argv, message", [
        (["dual", "--points", "abc"], "argument --points: invalid int value: 'abc'"),
        (["bell", "--order", "2"], "the following arguments are required: --count"),
        (["classify", "--bogus"], "unrecognized arguments: --bogus"),
        (["integrability", "--model", "gaussian", "--batch-csv"],
         "unrecognized arguments: --batch-csv"),
    ])
    def test_a_parse_error_exits_one_with_one_line(self, capsys, argv, message):
        # argparse wrote its usage block above the error line
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_help_exits_zero(self, capsys):
        assert run(["dual", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ")
        assert captured.err == ""

    @pytest.mark.parametrize("samples", ["0", "3", "7"])
    def test_fewer_samples_than_batches_exit_one_with_one_line(self, capsys, samples):
        argv = ["integrability", "--model", "gaussian", "--dim", "4", "--samples", samples,
                "--seed", "0"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need at least N_BATCHES=8 samples, one per batch, got {samples}\n"

    def test_a_tiny_grey_lambda_exits_one_within_a_second(self, capsys):
        # the Mittag-Leffler trapezoid took about 325 / lambda nodes per t: no
        # result within 20 s
        t0 = time.perf_counter()
        assert run(["positive-definite", "--model", "grey", "--lambda", "1e-9",
                    "--points", "2", "--sets", "1"]) == 1
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: lambda=1e-09 would take more than 1e\+08 [^\n]*\n",
                            captured.err)

    def test_tower_overflow_exits_one_with_one_line(self, capsys):
        assert run(["classify", "--family", "bell", "--order", "14"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: value exp^9(3814279.104760214) does not fit in a double\n"

    def test_precision_error_exits_one_with_one_line(self, capsys):
        # log u_4 = exp_3(r) - exp_3(0) leaves double range inside the grid
        assert run(["classify", "--family", "bell", "--order", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: value exp^1(")
        assert captured.err.count("\n") == 1

    def test_no_finite_objective_exits_one_with_one_line(self, tmp_path):
        # log u is infinite from r = 1 on, so every refined candidate is too
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": '
                       '{"points": [[0, 0], [1, Infinity], [10, Infinity]]}}')
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "legendre", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: no finite objective value found on [")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    def test_repeated_table_abscissa_exits_one_with_one_line(self, capsys, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": '
                       '{"points": [[0, 0], [1, 0.5], [1, 5], [10, 6]]}}')
        assert run(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table abscissa r=1.0 appears twice\n"

    @pytest.mark.parametrize("log_u0, message", [
        ("800", "table log u(0)=800.0 puts u(0) past a double"),
        ("Infinity", "table log u(0)=inf is not finite"),
        ("-Infinity", "table log u(0)=-inf is not finite"),
        ("NaN", "table log u(0)=nan is not finite"),
    ], ids=["800", "Infinity", "-Infinity", "NaN"])
    def test_table_u0_past_a_double_exits_one_with_one_line(self, capsys, tmp_path, log_u0,
                                                            message):
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": '
                       f'{{"points": [[0, {log_u0}], [1, 900], [10, 1000]]}}}}')
        assert run(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("config", [
        '{"family": "custom_table", "params": {"points": 5}}',
        '{"family": "custom_table", "params": {"points": [[0, 0], [1, null]]}}',
        '{"family": "power_exp", "params": {"beta": null}}',
        '{"family": "bell", "params": {"k": [2]}}',
        '{"family": "bell", "params": null}',
        '{"family": "sqrt_log", "r_max": [1]}',
        '{"family": "bell", "params": {"k": 2.7}}',
        '{"family": "sqrt_log", "params": {"k": 2.5}}',
        '{"family": "power_exp", "params": {"beta": 0.5}, "r_max": 0}',
        '{"family": "power_exp", "params": {"beta": 0.5}, "r_max": Infinity}',
        '{"family": "power_exp", "params": {"beta": 0.5}, "r_max": NaN}',
        '{"family": "power_exp", "params": {"beta": 0.5}, "r_max": -1}',
        '{"family": "power_exp", "params": {"beta": 0.5}, "r_max": "abc"}',
        # a table ends at its last abscissa, so an r_max is an error, not ignored
        '{"family": "custom_table", "params": {"points": [[0, 0], [1, 1], [10, 3]]}, "r_max": -1}',
        '[1, 2]',
    ])
    def test_malformed_config_exits_one_with_one_line(self, capsys, tmp_path, config):
        cfg = tmp_path / "w.json"
        cfg.write_text(config)
        assert run(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: weight config ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "nan", "2", "3", "-5"])
    def test_bad_classify_grid_r_max_exits_one_with_one_line(self, capsys, value):
        # the grid starts at 3: 0 used to read as "unset", 2 and 3 gave a descending or
        # constant grid, nan reached the report and -5 a numpy warning
        assert run(["classify", "--grid-r-max", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: classify grid r_max={float(value)!r}"
                                " is not a finite number > 3\n")

    def test_table_ending_below_three_exits_one_with_one_line(self, capsys, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": {"points": [[0, 0], [1, 1], [2, 3]]}}')
        assert run(["classify", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: classify grid r_max=2.0 is not a finite number > 3\n"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_one_with_one_line(self, capsys, tol):
        assert run(["positive-definite", "--model", "gaussian", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be finite, got {float(tol)!r}\n"

    def test_negative_tol_is_a_stricter_test(self, capsys):
        argv = ["positive-definite", "--model", "gaussian", "--points", "4", "--sets", "1"]
        assert run([*argv, "--tol=-1e-3"]) == 0
        [report] = json.loads(capsys.readouterr().out)["results"]["gram_reports"]
        assert report["tol"] == -1e-3 and report["verdict"] == "consistent"

    @pytest.mark.parametrize("flags", [["--r-lo", "-1"], ["--r-lo", "0"], ["--r-lo", "nan"],
                                       ["--r-hi", "inf"], ["--r-lo", "5", "--r-hi", "1"]])
    def test_bad_dual_radii_exit_one_with_one_line(self, capsys, flags):
        # a negative --r-lo used to reach np.geomspace, whose RuntimeWarning came first
        assert run(["dual", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need finite radii 0 < --r-lo <= --r-hi, got ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_non_finite_p_exits_one_with_one_line(self, capsys, p):
        # a NaN p used to be graded: an estimate of NaN, the verdict diverging, exit 2
        assert run(["integrability", "--model", "gaussian", f"--p={p}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p must be finite, got {float(p)!r}\n"

    def test_sampler_validation_error_exits_one_with_one_line(self):
        # a subprocess, so that numpy warnings would reach the stderr we read;
        # the sampler is broken: every draw is 1.5 times too large
        code = ("import sys; from wncalc import cli, measures; true_sample = measures.sample; "
                "measures.sample = lambda model, n, rng=None: 1.5 * true_sample(model, n, rng); "
                "sys.exit(cli.run(sys.argv[1:]))")
        res = subprocess.run(
            [sys.executable, "-c", code, "integrability", "--model", "grey",
             "--lambda", "0.5", "--dim", "6", "--samples", "20000", "--beta", "0.5"],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert re.fullmatch(r"error: grey sampler: worst deviation \d+\.\d\d sigma > 4\.61\n",
                            res.stderr)

    def test_a_grey_sampler_with_infinite_draws_exits_one_with_one_line(self):
        # a subprocess, so that numpy warnings would reach the stderr we read; at
        # lambda = 1e-9 the stable draws underflow to 0 and their power is inf
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "integrability", "--model", "grey",
             "--lambda", "1e-9", "--samples", "1000"],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert re.fullmatch(r"error: grey sampler: \d+ of 1000 draws are not finite\n",
                            res.stderr)

    def test_grey_lambda_near_one_converges_without_warnings(self):
        # the Kanter draws of the rows whose direct formula under- or
        # overflows are redone in log space, so none is rejected
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "integrability", "--model", "grey",
             "--lambda", "0.995", "--beta", "0.01", "--samples", "100000", "--seed", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["results"]["integrability"]["verdict"] == "converged"
        assert res.stderr.startswith("wall_time: ") and res.stderr.count("\n") == 1

    def test_grey_lambda_near_zero_passes_the_sampler_gate(self, capsys):
        # the gate's reference E_lam(-t) came from an integral branch that was wrong
        # at small lam, and this run failed it at 16.73 sigma
        argv = ["integrability", "--model", "grey", "--lambda", "0.03", "--beta", "0.97",
                "--samples", "100000", "--seed", "0"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert "error:" not in captured.err
        assert json.loads(captured.out)["results"]["integrability"]["verdict"] == "converged"


def test_cli_import_needs_no_scipy():
    code = ("import sys, wncalc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_cli_import_loads_no_mpmath(capsys):
    # only Bell numbers and the infinite HS series import it, on first use
    bell = ["bell", "--order", "3", "--count", "4"]
    code = ("import sys, wncalc.cli; print('mpmath' in sys.modules, flush=True); "
            f"from wncalc import chaos, cli; cli.run({bell!r}); "
            "print(repr(chaos.hs_norm_inclusion(3, 0)))")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    code, out = run_cli(bell, capsys)
    assert code == 0
    # not loaded at import; then the Bell numbers and 2^-3 zeta(3)
    assert res.stdout.splitlines() == ["False", *out.splitlines(),
                                       repr(2**-3 * 1.2020569031595942)]


def test_reports_are_identical_at_one_and_two_blas_threads():
    # the S-transform GEMMs give the same bits however BLAS splits them
    def report(argv, threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        res = subprocess.run([sys.executable, "-m", "wncalc.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        return res.stdout

    for argv in (["chaos-bounds", "--dim", "6", "--degree", "10", "--vectors", "40"],
                 ["verify-all", "--seed", "7"]):
        assert report(argv, 1) == report(argv, 2), argv


def test_an_array_is_not_written_as_its_string():
    # reports hold lists; an array reaching the writer is an error, not a str() field
    with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
        json.dumps(cli._jsonable({"x": np.arange(2)}))


# Runs cli.run on each argv of the JSON list on stdin, with every import of scipy
# refused, and prints [exit code, stderr, sha256 of stdout] per argv, one JSON line each.
_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused: import {name}")

sys.meta_path.insert(0, RefuseScipy())
from wncalc import cli

for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    print(json.dumps([code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()]))
"""


def _run_without_scipy(argvs):
    res = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], input=json.dumps(argvs),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return [json.loads(line) for line in res.stdout.splitlines()]


class TestRuntimeWithoutScipy:
    """Each subcommand runs with every import of scipy refused.  Argvs that an
    in-process test already runs are left out."""

    # argv and the exit codes it may give: 2 is a failed verdict, not an error
    RUNS = [
        (["legendre", "--nmax", "30"], {0}),
        (["legendre", "--csv", "--nmax", "10"], {0}),
        (["dual"], {0}),
        (["dual", "--points", "8"], {0}),
        (["chaos-bounds", "--dim", "6", "--degree", "10", "--vectors", "2", "--seed", "1"], {0}),
        (["chaos-bounds", "--dim", "6", "--degree", "10", "--vectors", "1",
          "--sample-per-scale", "3", "--seed", "2"], {0}),
        (["integrability", "--model", "grey", "--lambda", "0.99", "--beta", "0.01",
          "--samples", "100000", "--seed", "0"], {0}),
        (["integrability", "--model", "gaussian", "--dim", "4", "--samples", "20000",
          "--seed", "0"], {0}),
        # a diverging verdict under the Poisson measure
        (["integrability", "--model", "poisson", "--dim", "4", "--samples", "20000",
          "--seed", "0"], {0, 2}),
        (["positive-definite", "--model", "grey", "--lambda", "0.3", "--points", "8",
          "--sets", "2", "--seed", "0"], {0}),
        (["positive-definite", "--model", "poisson", "--points", "6", "--sets", "1",
          "--seed", "0"], {0}),
        (["bell", "--order", "3", "--count", "8"], {0}),
        (["weights-admissible"], {0}),
        (["classify", "--family", "power_exp", "--beta", "0.5"], {0}),
        # the sqrt_log and custom_table kernels; their class verdicts may fail
        (["classify", "--family", "sqrt_log", "--order", "3"], {0, 2}),
        (["classify", "--config", "TABLE"], {0, 2}),
    ]
    # argv and the one stderr line of its refusal
    REFUSED = [
        (["chaos-bounds", "--a", "nan"],
         "error: check_test_bound needs a finite a >= 0, got nan\n"),
        (["chaos-bounds", "--sample-per-scale", "0"], "error: the probe sample has no rows\n"),
        (["integrability", "--model", "gaussian", "--samples", "3"],
         "error: need at least N_BATCHES=8 samples, one per batch, got 3\n"),
    ]
    # argvs whose report bytes repeat in another process
    REPEATED = [
        # 13 vectors fill one chunk of 16 and 12 probes one tile, each zero-padded
        ["chaos-bounds", "--dim", "6", "--degree", "10", "--vectors", "13",
         "--sample-per-scale", "3", "--seed", "2"],
        # nine modes: the monomials go over eight levels of shared mode prefixes
        ["chaos-bounds", "--dim", "9", "--degree", "4", "--vectors", "3"],
        # every probe radius is 0, so u and u* take their r = 0 branch
        ["chaos-bounds", "--a", "0", "--vectors", "2", "--sample-per-scale", "3", "--seed", "1"],
        # a grey Gram below lambda = 3/4, where the trapezoid keeps its poles
        ["positive-definite", "--model", "grey", "--lambda", "0.28", "--points", "8",
         "--sets", "2", "--seed", "0"],
        # the Hermite u* of a Bell and of a power_exp weight
        ["duality", "--family", "bell", "--order", "2", "--nmax", "30", "--seed", "1"],
        ["duality", "--family", "power_exp", "--beta", "0.3", "--nmax", "30", "--seed", "1"],
    ]

    def test_exit_codes_refusals_and_repeated_reports(self, tmp_path):
        table = tmp_path / "table.json"
        table.write_text('{"family": "custom_table", "params": '
                         '{"points": [[0, 0], [1, 1], [10, 3], [1000, 40]]}}')
        runs = [([str(table) if a == "TABLE" else a for a in argv], codes)
                for argv, codes in self.RUNS]
        refused = [argv for argv, _ in self.REFUSED]
        got = _run_without_scipy([argv for argv, _ in runs] + refused + self.REPEATED)
        assert len(got) == len(runs) + len(refused) + len(self.REPEATED)
        for (argv, codes), (code, err, _) in zip(runs, got):
            assert code in codes and re.fullmatch(r"wall_time: \d+\.\d{3} s\n", err), argv
        no_output = hashlib.sha256(b"").hexdigest()
        for (argv, message), outcome in zip(self.REFUSED, got[len(runs):]):
            assert outcome == [1, message, no_output], argv
        first = got[len(runs) + len(refused):]
        assert [code for code, _, _ in first] == [0] * len(self.REPEATED)
        # the same reports from a process that runs nothing else first
        again = _run_without_scipy(self.REPEATED)
        assert [digest for _, _, digest in again] == [digest for _, _, digest in first]


class TestParser:
    """The argument parser is built once per process, at import."""

    def test_run_does_not_build_a_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called by run")

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out = run_cli(["bell", "--order", "2", "--count", "6"], capsys)
        assert code == 0
        assert out.split() == ["1", "1", "2", "5", "15", "52"]

    def test_usage_error_leaves_the_next_run_fresh(self, capsys, monkeypatch):
        # the refused argv sets flags of the same subcommand before its error
        argv = ["positive-definite", "--model", "gaussian", "--points", "6", "--sets", "1"]
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        env = {k: v for k, v in os.environ.items() if k != cli.ENV_SEED}
        fresh = subprocess.run([sys.executable, "-m", "wncalc.cli", *argv],
                               capture_output=True, text=True, timeout=120, env=env)
        assert fresh.returncode == 0, fresh.stderr
        assert run(["positive-definite", "--dim", "3", "--seed", "5", "--tol", "0.5",
                    "--model", "martian"]) == 1
        capsys.readouterr()
        assert run_cli(argv, capsys) == (0, fresh.stdout)


class TestClassify:
    def test_infinite_log_u_is_not_log_x2_convex(self, capsys, tmp_path):
        # every chord defect is NaN: no triple passes the chord test
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": '
                       '{"points": [[0, 0], [1, Infinity], [10, Infinity]]}}')
        code, out = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 2
        assert json.loads(out)["results"]["membership"]["log_x2_convex"] == "violated"

    def test_infinite_log_u_writes_no_warning(self, tmp_path):
        # a subprocess, so that numpy warnings would reach the stderr we read
        cfg = tmp_path / "w.json"
        cfg.write_text('{"family": "custom_table", "params": '
                       '{"points": [[0, 0], [1, Infinity], [10, Infinity]]}}')
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "classify", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 2
        assert re.fullmatch(r"wall_time: \d+\.\d{3} s\n", res.stderr)


class TestReports:
    def test_spec_shape(self, capsys):
        code, out = run_cli(
            ["duality", "--family", "power_exp", "--beta", "0.5", "--nmax", "30"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["subcommand"] == "duality"
        assert set(report) == {"subcommand", "seed", "config_digest", "results"}

    def test_same_config_gives_identical_bytes(self, capsys):
        args = ["classify", "--family", "bell", "--order", "2"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_out_flag_writes_the_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out = run_cli(
            ["legendre", "--family", "power_exp", "--nmax", "5", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        report = json.loads(path.read_text())
        assert len(report["results"]["table"]["t_grid"]) == 6

    def test_csv_table(self, capsys):
        code, out = run_cli(
            ["legendre", "--family", "power_exp", "--nmax", "3", "--csv"], capsys
        )
        assert code == 0
        csv = json.loads(out)["results"]["csv"]
        assert csv.startswith("t,ell,argmin_r,status\n")
        assert len(csv.splitlines()) == 5  # the header and t = 0 .. 3

    def test_seed_flag_and_env_default(self, capsys, monkeypatch):
        _, out = run_cli(["classify", "--seed", "11"], capsys)
        assert json.loads(out)["seed"] == 11
        monkeypatch.setenv("WNCALC_SEED", "23")
        _, out = run_cli(["classify"], capsys)
        assert json.loads(out)["seed"] == 23

    # each pair shared one digest while only the weight config went into it
    DISTINCT = [
        ["legendre", "--nmax", "5"], ["legendre", "--nmax", "10"],
        ["dual", "--points", "8"], ["dual", "--points", "16"],
        ["duality", "--nmax", "20"], ["duality", "--nmax", "30"],
        ["weights-admissible", "--nmax", "30"], ["weights-admissible", "--nmax", "40"],
        ["classify"], ["classify", "--grid-r-max", "1e4"],
        ["chaos-bounds", "--dim", "3", "--vectors", "1"],
    ]

    @staticmethod
    def digest(argv, capsys):
        code, out = run_cli(argv, capsys)
        assert code in (0, 2), argv
        return json.loads(out)["config_digest"]

    def test_distinct_runs_give_distinct_digests(self, capsys):
        digests = [self.digest(argv, capsys) for argv in self.DISTINCT]
        assert len(set(digests)) == len(self.DISTINCT)

    @pytest.mark.parametrize("flags", [["--samples", "2000"], ["--p", "2"]])
    def test_integrability_digest_covers_samples_and_p(self, capsys, flags):
        argv = ["integrability", "--model", "gaussian", "--dim", "4", "--samples", "1000",
                "--seed", "0"]
        assert self.digest(argv, capsys) != self.digest([*argv, *flags], capsys)

    def test_threads_and_out_leave_the_digest(self, capsys, tmp_path):
        argv = ["verify-all", "--seed", "7"]
        digest = self.digest([*argv, "--threads", "1"], capsys)
        assert self.digest([*argv, "--threads", "4"], capsys) == digest
        path = tmp_path / "report.json"
        assert run_cli([*argv, "--out", str(path)], capsys) == (0, "")
        assert json.loads(path.read_text())["config_digest"] == digest

    def test_digest_covers_the_config_content_not_its_path(self, capsys, tmp_path):
        text = '{"family": "power_exp", "params": {"beta": 0.25}, "r_max": 1e20}'
        paths = [tmp_path / "a.json", tmp_path / "b" / "w.json"]
        paths[1].parent.mkdir()
        for path in paths:
            path.write_text(text)
        argv = ["duality", "--nmax", "20", "--config"]
        digest = self.digest([*argv, str(paths[0])], capsys)
        assert self.digest([*argv, str(paths[1])], capsys) == digest
        paths[1].write_text(text.replace("0.25", "0.3"))
        assert self.digest([*argv, str(paths[1])], capsys) != digest

    def test_weight_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps(
            {"family": "power_exp", "params": {"beta": 0.25}, "r_max": 1e20}
        ))
        code, out = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["results"]["weight"]["params"]["beta"] == 0.25
