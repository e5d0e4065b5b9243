import json
import re
import subprocess
import sys

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

    def test_tower_overflow_exits_one_with_one_line(self, capsys):
        assert run(["classify", "--family", "bell", "--order", "14"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: tower depth 9 exceeds 8\n"

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

    def test_sampler_validation_error_exits_one_with_one_line(self):
        # a subprocess, so that numpy warnings would reach the stderr we read
        res = subprocess.run(
            [sys.executable, "-m", "wncalc.cli", "integrability", "--model", "grey",
             "--lambda", "0.99", "--beta", "0.01"],
            capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: grey sampler: 16 of 100000 draws are not finite\n"


def test_cli_import_needs_no_scipy():
    code = ("import sys, wncalc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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

    def test_seed_flag_and_env_default(self, capsys, monkeypatch):
        _, out = run_cli(["classify", "--seed", "11"], capsys)
        assert json.loads(out)["seed"] == 11
        monkeypatch.setenv("WNCALC_SEED", "23")
        _, out = run_cli(["classify"], capsys)
        assert json.loads(out)["seed"] == 23

    def test_weight_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "w.json"
        cfg.write_text(json.dumps(
            {"family": "power_exp", "params": {"beta": 0.25}, "r_max": 1e20}
        ))
        code, out = run_cli(["classify", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["results"]["weight"]["params"]["beta"] == 0.25
