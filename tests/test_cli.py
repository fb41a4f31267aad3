"""Command-line layer: config parsing, report determinism, exit codes,
and the verify suites."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

import reslab
from reslab import charsums, cli

SRC = os.path.dirname(os.path.dirname(reslab.__file__))


SMALL_CFG = """\
# small exhibit: low band {11, 13, 17, 19}, high band {23, 29}
mode = explicit
D = 200
L = 2.718281828459045
x = 30
B = 30
Z = 150
pminus_lo = 10
pminus_hi = 20
"""


@pytest.fixture
def small_cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG + f"outdir = {tmp_path / 'out'}\n")
    return str(path)


class TestRunConfig:
    def test_parse_round_trip(self):
        cfg = cli.RunConfig.parse(SMALL_CFG)
        again = cli.RunConfig.parse(cfg.emit())
        assert again == cfg
        assert cfg.D == 200 and cfg.x == 30.0 and cfg.mode == "explicit"

    def test_comments_and_blanks_ignored(self):
        cfg = cli.RunConfig.parse("\n# only a comment\nD = 44  # inline\n\n")
        assert cfg.D == 44

    def test_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="line 1.*quux"):
            cli.RunConfig.parse("quux = 3\n")

    def test_missing_equals(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.RunConfig.parse("D = 10\njust words\n")

    def test_bad_value(self):
        with pytest.raises(cli.ConfigError, match="line 1.*D"):
            cli.RunConfig.parse("D = not-an-int\n")

    def test_bad_mode(self):
        with pytest.raises(cli.ConfigError, match="mode"):
            cli.RunConfig.parse("mode = wobbly\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.RunConfig.load(str(tmp_path / "no-such.cfg"))

    def test_to_params(self):
        params = cli.RunConfig.parse(SMALL_CFG).to_params()
        assert params.D == 200 and params.x == 30.0

    def test_worker_count_env_override(self, monkeypatch):
        cfg = cli.RunConfig.parse("workers = 7\n")
        monkeypatch.delenv("RESLAB_WORKERS", raising=False)
        assert cfg.worker_count() == 7
        monkeypatch.setenv("RESLAB_WORKERS", "2")
        assert cfg.worker_count() == 2


class TestReports:
    def test_canonical_json_drops_timing(self):
        s = cli.canonical_json({"b": 1, "a": 2, "timing": {"wall": 3.2}})
        assert "timing" not in s
        assert s.index('"a"') < s.index('"b"')

    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "x.json")
        cli.atomic_write(path, "data")
        assert open(path).read() == "data"
        assert not os.path.exists(path + ".tmp")


class TestExitCodes:
    def test_params_feasible(self, small_cfg_path, capsys):
        assert cli.main(["--config", small_cfg_path, "params"]) == cli.EXIT_PASS
        assert "FEASIBLE" in capsys.readouterr().out

    def test_bad_config_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert cli.main(["--config", str(bad), "params"]) == cli.EXIT_CONFIG

    def test_infeasible_params_is_two(self, tmp_path):
        cfg = tmp_path / "inf.cfg"
        # B > x violates the schedule constraints
        cfg.write_text("mode = explicit\nD = 200\nL = 2.0\nx = 30\nB = 100\n"
                       "Z = 150\npminus_lo = 10\npminus_hi = 20\n")
        assert cli.main(["--config", str(cfg), "ratio"]) == cli.EXIT_CONFIG

    def test_work_guard_is_three(self, tmp_path):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(SMALL_CFG.replace("D = 200",
                                         f"D = {charsums.MAX_D_EXACT * 2}"))
        assert cli.main(["--config", str(cfg), "ratio"]) == cli.EXIT_WORK

    def test_invalid_discriminant_is_two(self, small_cfg_path):
        assert cli.main(["--config", small_cfg_path, "afe",
                         "--d", "9"]) == cli.EXIT_CONFIG

    def test_failing_suite_is_one(self, monkeypatch, capsys, tmp_path):
        def boom(cfg):
            raise AssertionError("forced failure")

        monkeypatch.setitem(cli.SUITES, "trig", boom)
        cfg = cli.RunConfig(outdir=str(tmp_path))
        assert cli.cmd_verify(cfg, "trig") == cli.EXIT_ASSERT


class TestRatioCommand:
    def test_report_and_csv(self, small_cfg_path, capsys):
        assert cli.main(["--config", small_cfg_path, "ratio"]) == cli.EXIT_PASS
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        with open(os.path.join(outdir, "ratio_report.json")) as fh:
            rep = json.load(fh)
        res = rep["results"]
        assert res["ratio"] == pytest.approx(1.6224533054564796, rel=1e-13)
        assert res["extremal_d"] == 181
        assert res["extremal_value"] <= res["ratio"]
        assert rep["diagnostics"]["pigeonhole_holds"] is True
        with open(os.path.join(outdir, "family_sums.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == rep["diagnostics"]["admissible"]
        d181 = next(r for r in rows if r["d"] == "181")
        assert float(d181["truncated_sum"]) == pytest.approx(
            res["extremal_value"], rel=1e-12)

    def test_bit_identical_across_workers(self, tmp_path, monkeypatch):
        reports = {}
        for w in ("1", "2"):
            outdir = tmp_path / f"out{w}"
            cfgp = tmp_path / f"run{w}.cfg"
            # D = 3e5 gives two chunks of the default size, so at 2 workers
            # the pool runs and its workers format the CSV lines
            cfgp.write_text(SMALL_CFG.replace("D = 200", "D = 300000")
                            + f"outdir = {outdir}\n")
            monkeypatch.setenv("RESLAB_WORKERS", w)
            assert cli.main(["--config", str(cfgp), "ratio"]) == cli.EXIT_PASS
            reports[w] = (
                (outdir / "ratio_report.json").read_bytes(),
                (outdir / "family_sums.csv").read_bytes())
        # the config echo differs only in outdir; strip it before comparing
        a = reports["1"][0].replace(b"out1", b"out#")
        b = reports["2"][0].replace(b"out2", b"out#")
        assert a == b
        assert reports["1"][1] == reports["2"][1]

    def test_checkpoint_resume_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESLAB_WORKERS", "1")
        outdir = tmp_path / "out"
        cfgp = tmp_path / "run.cfg"
        # D = 3e5 gives the family two chunks of the default size
        cfgp.write_text(SMALL_CFG.replace("D = 200", "D = 300000")
                        + f"outdir = {outdir}\n")
        ck = str(tmp_path / "scan.ckpt")

        def run():
            assert cli.main(["--config", str(cfgp), "ratio",
                             "--checkpoint", ck]) == cli.EXIT_PASS
            return ((outdir / "ratio_report.json").read_bytes(),
                    (outdir / "family_sums.csv").read_bytes())

        first = run()
        with open(ck) as fh:
            saved = json.load(fh)
        assert len(saved["chunks"]) == 2
        # a complete checkpoint: every chunk restored, and recomputed for the CSV
        assert run() == first
        # drop half the chunks to simulate an interrupted run
        saved["chunks"] = dict(list(saved["chunks"].items())[::2])
        with open(ck, "w") as fh:
            json.dump(saved, fh)
        assert run() == first


def _run_cli(args, cwd, workers="1"):
    env = dict(os.environ, PYTHONPATH=SRC, RESLAB_WORKERS=workers)
    return subprocess.run([sys.executable, "-m", "reslab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


class TestErrorPaths:
    @pytest.mark.parametrize("case", ["workers_not_int", "foreign_checkpoint",
                                      "checkpoint_not_json", "empty_family",
                                      "checkpoint_dir_missing", "x_nan",
                                      "B_nan", "Z_nan", "Z_inf", "Z_neg",
                                      "Z_zero", "L_neg"])
    def test_exit_two_without_traceback(self, case, small_cfg_path, tmp_path):
        ck = tmp_path / "scan.ckpt"
        cfg = small_cfg_path
        workers = "1"
        if case == "workers_not_int":
            workers = "abc"
        elif case == "foreign_checkpoint":
            other = tmp_path / "other.cfg"
            other.write_text(SMALL_CFG.replace("D = 200", "D = 300")
                             + f"outdir = {tmp_path / 'other'}\n")
            assert _run_cli(["--config", str(other), "ratio", "--checkpoint",
                             str(ck)], tmp_path).returncode == cli.EXIT_PASS
        elif case == "checkpoint_not_json":
            ck.write_text("{ not json\n")
        elif case == "empty_family":
            # the family (1, 2] holds no odd d
            empty = tmp_path / "empty.cfg"
            empty.write_text(SMALL_CFG.replace("D = 200", "D = 2")
                             + f"outdir = {tmp_path / 'out'}\n")
            cfg = str(empty)
        elif case == "checkpoint_dir_missing":
            ck = tmp_path / "nodir" / "scan.ckpt"
        else:
            # NaN slips past every comparison the schedule makes, an
            # infinite Z puts no bound on the support, Z < 0 reaches
            # sqrt(Z / x), L < 0 a complex L^(5 pi/3), and Z = 0 an empty
            # schedule
            key, value = case.split("_")
            value = {"Z_neg": "-1", "Z_zero": "0", "L_neg": "-2"}.get(case, value)
            bad = tmp_path / "bad.cfg"
            bad.write_text(SMALL_CFG.replace(
                f"\n{key} = ", f"\n{key} = {value}  # was ")
                + f"outdir = {tmp_path / 'out'}\n")
            cfg = str(bad)
        proc = _run_cli(["--config", cfg, "ratio", "--checkpoint",
                         str(ck)], tmp_path, workers=workers)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        assert not os.path.exists(os.path.join(outdir, "family_sums.csv"))
        assert not os.path.exists(os.path.join(outdir, "family_sums.csv.tmp"))

    @pytest.mark.parametrize("args, code", [
        (["--npoints", "-1"], cli.EXIT_CONFIG),
        (["--npoints", "0"], cli.EXIT_CONFIG),
        (["--y-hi", "inf"], cli.EXIT_CONFIG),
        (["--y-lo", "nan"], cli.EXIT_CONFIG),
        (["--y-lo", "0"], cli.EXIT_CONFIG),
        (["--y-lo", "9", "--y-hi", "3"], cli.EXIT_CONFIG),
        (["--y-hi", "1e300"], cli.EXIT_WORK),
        (["--y-hi", str(charsums.MAX_X * 1.001)], cli.EXIT_WORK),
    ], ids=["npoints_negative", "npoints_zero", "y_hi_inf", "y_lo_nan",
            "y_lo_zero", "reversed", "y_hi_huge", "y_hi_past_guard"])
    def test_scan_s_bad_range_without_traceback(self, args, code,
                                                small_cfg_path, tmp_path):
        proc = _run_cli(["--config", small_cfg_path, "scan-s", *args],
                        tmp_path)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        assert not os.path.exists(os.path.join(outdir, "scan_s.csv"))

    def test_support_guard_exit_three(self, tmp_path):
        # Z = 10^13 on the desk schedule has 1.67M support entries; the
        # enumeration stops at resonator.MAX_SUPPORT instead of building them
        (tmp_path / "deep.cfg").write_text(
            DESK_CFG.replace("\nZ = ", "\nZ = 1e13  # was "))
        proc = _run_cli(["--config", "deep.cfg", "ratio"], tmp_path)
        assert proc.returncode == cli.EXIT_WORK
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "support exceeds" in proc.stderr
        assert not os.path.exists(tmp_path / "out")

    def test_oracle_guard_exit_three(self, tmp_path):
        proc = _run_cli(["afe", "--d", str(charsums.MAX_D_EXACT + 1)], tmp_path)
        assert proc.returncode == cli.EXIT_WORK
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not os.path.exists(tmp_path / "afe_report.json")

    def test_afe_negative_d_exit_two(self, tmp_path):
        # -3 is odd and squarefree; the message must name positivity
        proc = _run_cli(["afe", "--d", "-3"], tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "positive" in lines[0]
        assert not os.path.exists(tmp_path / "afe_report.json")

    def test_kernel_guard_exit_three(self, tmp_path):
        # at x = 10^11 sign assignment asks for S(x/p) far above MAX_X; the
        # kernel refuses before it builds its lattice
        (tmp_path / "wide.cfg").write_text(
            DESK_CFG.replace("x = 200\n", "x = 1e11\n"))
        proc = _run_cli(["--config", "wide.cfg", "ratio"], tmp_path)
        assert proc.returncode == cli.EXIT_WORK
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "partial-sum guard" in proc.stderr
        assert not os.path.exists(tmp_path / "out")


DESK_CFG = f"""\
# the D = 10^6 exhibit schedule
mode = explicit
D = 1000000
L = 2
x = 200
B = 200
Z = {200.0 ** 1.5!r}
outdir = out
"""


def test_cli_import_leaves_scipy_out(tmp_path):
    # the ratio path, the partial-sum lattice behind scan-s, the
    # factorization and gallagher suites and the central values need numpy
    # only; scipy is a test-only oracle
    (tmp_path / "run.cfg").write_text(DESK_CFG)
    report = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for run in ("", "reslab.cli.main(['--config', 'run.cfg', 'verify', "
                    "'factorization'])",
                "reslab.cli.main(['--config', 'run.cfg', 'verify', "
                "'gallagher'])",
                "reslab.cli.main(['--config', 'run.cfg', 'verify', 'afe'])",
                "reslab.cli.main(['--config', 'run.cfg', 'scan-s'])",
                "reslab.cli.main(['--config', 'run.cfg', 'afe', '--d', "
                "'100003'])"):
        code = f"import sys, reslab.cli\n{run}\n{report}"
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", run
        if "verify" in run:
            assert proc.stdout.startswith("PASS"), proc.stdout
        elif "'afe'" in run:
            assert proc.stdout.startswith("d = 100003: "), proc.stdout
        elif run:
            assert proc.stdout.startswith("csv: "), proc.stdout


class TestScanCommand:
    def test_scan_s(self, small_cfg_path, capsys):
        assert cli.main(["--config", small_cfg_path, "scan-s",
                         "--y-lo", "2", "--y-hi", "60",
                         "--npoints", "25"]) == cli.EXIT_PASS
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        with open(os.path.join(outdir, "scan_s.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert list(rows[0]) == ["y", "S", "S_star", "S_tilde"]
        # S* dominates |S| pointwise (absolute-value companion)
        for r in rows:
            assert float(r["S_star"]) >= abs(float(r["S"])) - 1e-12
        with open(os.path.join(outdir, "scan_s.json")) as fh:
            best = json.load(fh)
        assert best["best_A"] is not None
        assert best["best_A"] <= best["U"]

    def test_rejects_bad_range(self, small_cfg_path):
        assert cli.main(["--config", small_cfg_path, "scan-s", "--y-lo", "9",
                         "--y-hi", "3"]) == cli.EXIT_CONFIG


class TestAfeCommand:
    def test_values_and_report(self, small_cfg_path, capsys):
        assert cli.main(["--config", small_cfg_path, "afe",
                         "--d", "1", "3", "5"]) == cli.EXIT_PASS
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        with open(os.path.join(outdir, "afe_report.json")) as fh:
            rep = json.load(fh)
        assert rep["worst_gap"] <= 1e-6
        byd = {row["d"]: row for row in rep["values"]}
        assert byd[3]["value"] == pytest.approx(0.7094580614652297, rel=1e-12)


class TestVerifySuites:
    @pytest.mark.parametrize("suite", ["arith", "trig", "trunc", "gallagher"])
    def test_fast_suites_pass(self, suite, tmp_path, capsys):
        cfg = cli.RunConfig(outdir=str(tmp_path))
        assert cli.cmd_verify(cfg, suite) == cli.EXIT_PASS
        path = tmp_path / f"verify_{suite}.json"
        assert path.exists()
        assert json.loads(path.read_text())["passed"] is True
