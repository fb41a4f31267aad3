"""Command-line layer: config parsing, report determinism, exit codes,
and the verify suites."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reslab
from reslab import charsums, cli, resonator

import golden

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
        assert cfg == cli.RunConfig(
            mode="explicit", D=200, L=2.718281828459045, x=30.0, B=30.0,
            Z=150.0, pminus_lo=10.0, pminus_hi=20.0)

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

    def test_workers_is_not_a_key(self):
        # RESLAB_WORKERS is the one worker setting
        with pytest.raises(cli.ConfigError, match="unknown key 'workers'"):
            cli.RunConfig.parse("workers = 2\n")


class TestReports:
    def test_canonical_json_sorts_keys(self):
        s = cli.canonical_json({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')

    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "new" / "x.json")
        with cli.atomic_output(path) as fh:
            fh.write(b"data")
        assert open(path, "rb").read() == b"data"
        assert not os.path.exists(path + ".tmp")

    def test_atomic_output_failure_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "x.json")
        with pytest.raises(RuntimeError, match="mid-write"):
            with cli.atomic_output(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("mid-write")
        assert os.listdir(tmp_path) == []
        # a directory on the path makes the rename fail
        os.mkdir(path)
        with pytest.raises(IsADirectoryError):
            with cli.atomic_output(path) as fh:
                fh.write(b"data")
        assert os.listdir(tmp_path) == ["x.json"]


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
            # D = 3e5 gives five chunks of the default size, so at 2 workers
            # the pool runs: its workers format and write the CSV lines to
            # part files, and this process only concatenates them in chunk
            # order
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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_scan_writes_no_csv(self, tmp_path, monkeypatch, workers):
        # the third chunk raises, in a pool worker too (the pool forks):
        # the error propagates, and neither the CSV, its temp file nor a
        # part file is left
        parts = tmp_path / "parts"
        parts.mkdir()
        monkeypatch.setattr(charsums.tempfile, "tempdir", str(parts))
        monkeypatch.setattr(charsums, "_CHUNK", 16)
        monkeypatch.setenv("RESLAB_WORKERS", workers)
        arrays = charsums._chunk_arrays

        def failing(lo, hi, state):
            if lo == 101 + 2 * 16:
                raise RuntimeError("chunk failed")
            return arrays(lo, hi, state)

        monkeypatch.setattr(charsums, "_chunk_arrays", failing)
        outdir = tmp_path / "out"
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL_CFG + f"outdir = {outdir}\n")
        with pytest.raises(RuntimeError, match="chunk failed"):
            cli.main(["--config", str(cfgp), "ratio"])
        assert not (outdir / "family_sums.csv").exists()
        assert not (outdir / "family_sums.csv.tmp").exists()
        assert list(parts.iterdir()) == []


def _run_cli(args, cwd, workers="1"):
    env = dict(os.environ, PYTHONPATH=SRC, RESLAB_WORKERS=workers)
    return subprocess.run([sys.executable, "-m", "reslab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def _outdir_through_file(tmp_path):
    """A config whose outdir lies under a regular file."""
    (tmp_path / "afile").write_text("")
    path = tmp_path / "through.cfg"
    path.write_text(SMALL_CFG + f"outdir = {tmp_path / 'afile' / 'sub'}\n")
    return str(path)


# configs whose schedule overflowed a float where it made a value: Z =
# x^(3/2), the finiteness test of a 401-digit D, and the least feasible D
# that the infeasibility message names
_OVERFLOW = {
    "x_1e210": "L = 10\nx = 1e210\n",
    "D_401_digits": f"L = 10\na = 0.5\nD = {10**400}\n",
    "asymptotic_a_small": "mode = asymptotic\na = 0.001\nD = 1000000\n",
}

# the values a generated config draws; None drops the key
_VALUES = (None, "0", "-1", "-2.5", "1e300", "-1e300", "nan", "inf", "-inf",
           str(10**400), "0x1f", "junk", "", "asymptotic", "1e5")
_KEYS = ("mode", "D", "a", "L", "x", "B", "Z", "pminus_lo", "pminus_hi",
         "seed", "outdir")
_CHEAP = (["params"], ["verify", "trig"], ["verify", "arith"],
          ["verify", "trunc"], ["afe", "--d", "3"], ["ratio"])


class TestErrorPaths:
    @given(st.dictionaries(st.sampled_from(_KEYS), st.sampled_from(_VALUES),
                           max_size=4),
           st.sampled_from(_CHEAP))
    @settings(max_examples=400, deadline=None)
    def test_generated_config_ends_in_one_line(self, changes, args):
        # the small config with up to four keys changed: each command ends
        # in a documented exit code, without a traceback or a warning, and
        # exits 1 only on a failed check's line
        fields = dict(line.split(" = ") for line in SMALL_CFG.splitlines()[1:])
        for key, value in changes.items():
            if value is None:
                fields.pop(key, None)
            else:
                fields[key] = value
        cwd = os.getcwd()
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, RESLAB_WORKERS="1"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            os.chdir(tmp)  # a relative outdir lands here
            try:
                pathlib.Path("run.cfg").write_text(
                    "".join(f"{k} = {v}\n" for k, v in fields.items()))
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["--config", "run.cfg", *args])
            finally:
                os.chdir(cwd)
        assert code in (cli.EXIT_PASS, cli.EXIT_ASSERT, cli.EXIT_CONFIG,
                        cli.EXIT_WORK)
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        if code == cli.EXIT_ASSERT:
            assert ("FAIL" in out.getvalue()
                    or err.getvalue().startswith("assertion failed: "))

    @pytest.mark.parametrize("args, report", [
        (["ratio"], "ratio_report.json"),
        (["scan-s", "--npoints", "8"], "scan_s.json"),
    ], ids=["ratio", "scan_s"])
    def test_failed_report_leaves_no_new_output(self, args, report,
                                                small_cfg_path, tmp_path):
        # the report is written inside its CSV's block: when the report
        # cannot be written, neither the CSV nor a temp file is left
        outdir = tmp_path / "out"
        (outdir / report).mkdir(parents=True)
        assert cli.main(["--config", small_cfg_path, *args]) == cli.EXIT_CONFIG
        assert os.listdir(outdir) == [report]

    @pytest.mark.parametrize("case", ["workers_not_int", "empty_family",
                                      "x_nan", "B_nan", "Z_nan", "Z_inf",
                                      "Z_neg", "Z_zero", "L_neg", "B_8",
                                      "L_1e300", "outdir_not_dir",
                                      "outdir_empty", "not_utf8",
                                      "seed_negative", "report_path_taken",
                                      *_OVERFLOW])
    def test_exit_two_without_traceback(self, case, small_cfg_path, tmp_path):
        cfg = small_cfg_path
        workers = "1"
        if case in _OVERFLOW:
            cfg = str(tmp_path / "bad.cfg")
            pathlib.Path(cfg).write_text(_OVERFLOW[case])
        elif case == "workers_not_int":
            workers = "abc"
        elif case == "empty_family":
            # the family (1, 2] holds no odd d
            empty = tmp_path / "empty.cfg"
            empty.write_text(SMALL_CFG.replace("D = 200", "D = 2")
                             + f"outdir = {tmp_path / 'out'}\n")
            cfg = str(empty)
        elif case == "outdir_not_dir":
            cfg = _outdir_through_file(tmp_path)
        elif case == "report_path_taken":
            # a directory stands where ratio_report.json would go
            os.makedirs(tmp_path / "out" / "ratio_report.json")
        elif case in ("outdir_empty", "not_utf8", "seed_negative"):
            bad = tmp_path / "bad.cfg"
            if case == "outdir_empty":
                # abspath("") is the cwd, but os.makedirs("") fails
                bad.write_text(SMALL_CFG + "outdir =\n")
            elif case == "seed_negative":
                # random.Random(-s) seeds the same stream as
                # random.Random(s), so a negative seed would alias one
                bad.write_text(SMALL_CFG + "seed = -1\n")
            else:
                bad.write_bytes(SMALL_CFG.encode() + b"# \xff\n")
            cfg = str(bad)
        else:
            # NaN slips past every comparison the schedule makes, an
            # infinite Z puts no bound on the support, Z < 0 reaches
            # sqrt(Z / x), L < 0 a complex L^(5 pi/3), Z = 0 an empty
            # schedule, B = 8 puts the prime 2 in the high band, and
            # L = 10^300 overflows L^(5 pi/3), the default band edge
            key, value = case.split("_")
            value = {"Z_neg": "-1", "Z_zero": "0", "L_neg": "-2"}.get(case, value)
            bad = tmp_path / "bad.cfg"
            bad.write_text(SMALL_CFG.replace(
                f"\n{key} = ", f"\n{key} = {value}  # was ")
                + f"outdir = {tmp_path / 'out'}\n")
            cfg = str(bad)
        proc = _run_cli(["--config", cfg, "ratio"], tmp_path,
                        workers=workers)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert proc.stdout == ""
        assert not os.path.exists(tmp_path / "family_sums.csv")
        outdir = cli.RunConfig.load(small_cfg_path).outdir
        assert not os.path.exists(os.path.join(outdir, "family_sums.csv"))
        assert not os.path.exists(os.path.join(outdir, "family_sums.csv.tmp"))

    @pytest.mark.parametrize("args", [["afe", "--d", "3"], ["scan-s"],
                                      ["verify", "arith"]],
                             ids=["afe", "scan_s", "verify"])
    def test_outdir_not_dir_exit_two(self, args, tmp_path):
        proc = _run_cli(["--config", _outdir_through_file(tmp_path), *args],
                        tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert "not a directory" in lines[0]

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

    def test_sieve_guard_exit_three(self, tmp_path):
        # a feasible asymptotic schedule whose bands would need a sieve to
        # B = x = D^a = 10^30; the table refuses before sieving
        (tmp_path / "huge.cfg").write_text(
            f"mode = asymptotic\na = 0.2\nD = {10**150}\n")
        proc = _run_cli(["--config", "huge.cfg", "params"], tmp_path)
        assert proc.returncode == cli.EXIT_WORK
        assert "verdict: FEASIBLE" not in proc.stdout
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "sieve guard" in proc.stderr

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

    def test_table_guard_exit_three(self, tmp_path):
        # x = 10^5 needs residue tables of 1.7e9 entries in all, about 20 s
        # of work; the scan refuses before it builds one
        (tmp_path / "wide.cfg").write_text(
            SMALL_CFG.replace("x = 30\n", "x = 1e5\n")
            .replace("Z = 150\n", "Z = 1e20\n"))
        proc = _run_cli(["--config", "wide.cfg", "ratio"], tmp_path)
        assert proc.returncode == cli.EXIT_WORK
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "residue table guard" in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["wide.cfg"]

    @pytest.mark.parametrize("case, code", [("empty_family", cli.EXIT_CONFIG),
                                            ("table_guard", cli.EXIT_WORK)])
    def test_failed_ratio_leaves_no_outdir(self, case, code, tmp_path):
        # ratio opens its CSV, making the outdir, before the scan refuses;
        # the directories it made go again with the CSV's temp file
        if case == "empty_family":
            text = SMALL_CFG.replace("D = 200", "D = 2")  # no odd d in (1, 2]
        else:
            text = DESK_CFG.replace("x = 200\n", "x = 1e5\n")
        (tmp_path / "run.cfg").write_text(
            text.replace("outdir = out\n", "") + "outdir = fresh/out\n")
        proc = _run_cli(["--config", "run.cfg", "ratio"], tmp_path)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert sorted(os.listdir(tmp_path)) == ["run.cfg"]

    def test_params_schedule_error_on_stderr(self, tmp_path):
        # x^1.5 overflows a float: params reports it as every command does
        (tmp_path / "over.cfg").write_text("mode = explicit\nL = 10\n"
                                           "x = 1e210\n")
        proc = _run_cli(["--config", "over.cfg", "params"], tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:")
        assert "INFEASIBLE" not in proc.stdout


# the D = 10^6 exhibit schedule, outdir "out"
DESK_CFG = golden.DESK_CFG


# hashlib loads OpenSSL, and no command hashes anything; numpy.random
# brings it in too, through secrets, and no command draws from it (the
# seeded trials use the stdlib's random); only a scan with more than one
# worker needs the process pool
_HASHING = ("_hashlib", "hashlib", "secrets", "numpy.random")
_POOL = ("concurrent", "multiprocessing")


def test_cli_import_leaves_scipy_out(tmp_path):
    # the ratio path, the partial-sum lattice behind scan-s, the
    # factorization and gallagher suites and the central values need numpy
    # only; scipy is a test-only oracle.  No command loads the pool unless
    # it runs one, and none loads hashlib or numpy.random
    (tmp_path / "run.cfg").write_text(DESK_CFG)
    everything = ("scipy",) + _POOL + _HASHING
    for args, head, absent, workers in [
            ("", "", everything, "1"),
            ("'verify', 'factorization'", "PASS", everything, "1"),
            ("'verify', 'gallagher'", "PASS", everything, "1"),
            ("'verify', 'afe'", "PASS", everything, "1"),
            ("'scan-s'", "csv: ", everything, "1"),
            ("'afe', '--d', '100003'", "d = 100003: ", everything, "1"),
            ("'ratio'", "report: ", everything, "1"),
            ("'ratio'", "report: ", ("scipy",) + _HASHING, "2")]:
        run = f"reslab.cli.main(['--config', 'run.cfg', {args}])" if args else ""
        report = ("print(sorted(m for m in sys.modules if any("
                  f"(m + '.').startswith(a + '.') for a in {absent!r})))")
        code = f"import sys, reslab.cli\n{run}\n{report}"
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC,
                                       RESLAB_WORKERS=workers),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]", (run, workers)
        assert proc.stdout.startswith(head), proc.stdout


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

    def test_nan_gap_fails(self, small_cfg_path, tmp_path, monkeypatch,
                           capsys):
        # max(0.0, nan) is 0.0, so a worst gap taken by max would pass it
        monkeypatch.setattr(charsums, "dirichlet_l_half", lambda d: math.nan)
        assert cli.main(["--config", small_cfg_path, "afe",
                         "--d", "1", "3"]) == cli.EXIT_ASSERT
        assert "FAIL" in capsys.readouterr().out
        rep = json.loads((tmp_path / "out" / "afe_report.json").read_text())
        assert [row["d"] for row in rep["values"]] == [1, 3]
        assert math.isnan(rep["worst_gap"])


class TestVerifySuites:
    @pytest.mark.parametrize("suite", ["arith", "trig", "trunc", "gallagher"])
    def test_fast_suites_pass(self, suite, tmp_path, capsys):
        cfg = cli.RunConfig(outdir=str(tmp_path))
        assert cli.cmd_verify(cfg, suite) == cli.EXIT_PASS
        path = tmp_path / f"verify_{suite}.json"
        assert path.exists()
        assert json.loads(path.read_text())["passed"] is True

    def test_trunc_sees_a_scaled_r1(self, monkeypatch, tmp_path, capsys):
        # r(1) scaled by 1 + 1e-11 moves the Rankin identities by about
        # 1e-11: inside the 1e-10 and 0.01 the suite once allowed, not
        # within checks.RANKIN_GAP
        products = resonator.band_products

        def scaled(band, limit):
            for n, w, ps in products(band, limit):
                yield n, (w * (1.0 + 1e-11) if n == 1 else w), ps

        monkeypatch.setattr(resonator, "band_products", scaled)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "trunc"]) == cli.EXIT_ASSERT
        assert "FAIL [trunc]: identity = " in capsys.readouterr().out

    def test_contour_suite(self, tmp_path, capsys, three_prime_contour):
        # the three-prime schedule of the contour tests, through the CLI
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(golden.THREE_PRIME_CFG + f"outdir = {tmp_path}\n")
        assert cli.main(["--config", str(cfgp), "verify",
                         "contour"]) == cli.EXIT_PASS
        assert "PASS [contour]" in capsys.readouterr().out
        rep = json.loads((tmp_path / "verify_contour.json").read_text())
        assert rep["passed"] is True
        res = rep["result"]
        assert sorted(res) == ["10.0", "2.0", "5.0"]
        assert [res[y]["contour"] for y in ("2.0", "5.0", "10.0")] == \
            three_prime_contour.value.tolist()
        data = (tmp_path / "verify_contour.json").read_bytes()
        assert golden.mismatch("verify_contour.json", data, golden.load()) is None

    def test_factorization_margin(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(
            DESK_CFG.replace("outdir = out", f"outdir = {tmp_path}"))
        assert cli.main(["--config", str(tmp_path / "run.cfg"), "verify",
                         "factorization"]) == cli.EXIT_PASS
        rep = json.loads((tmp_path / "verify_factorization.json").read_text())
        points = rep["result"]["points"]
        assert len(points) == 12
        for row in points:
            assert row["margin"] == row["gap"] / row["bound"] <= 1.0
        worst = rep["result"]["worst_over_cert"]
        assert worst == max(row["margin"] for row in points)
        assert 0.0 < worst <= 1.0


# each suite's second route, broken, and the point its failure names: the
# oracle reads 0, F factored is off by 1, the contour reads y + 1 without
# evaluating the line, and the main term is off by 100 %
_BROKEN = {
    "afe": ("d", "reslab.charsums.dirichlet_l_half = lambda d: 0.0"),
    "factorization": ("s", (
        "factored = reslab.analytic.F_factored_bounded\n"
        "def broken(s, table):\n"
        "    value, cert = factored(s, table)\n"
        "    return value + 1.0, cert\n"
        "reslab.analytic.F_factored_bounded = broken")),
    "contour": ("y", "reslab.analytic.S_via_contour = lambda ys, table: "
                "reslab.analytic.ContourValue(np.add(ys, 1.0), np.full(3, 1e-6))"),
    "orthogonality": (
        "n", "reslab.charsums.orthogonality_check = lambda n, D: (0.0, 1.0, -1.0)"),
}


@pytest.mark.parametrize("suite", sorted(_BROKEN))
def test_failing_suite_fails_under_optimize(suite, tmp_path):
    # python -O strips assert statements; the suites' checks must survive it
    (tmp_path / "run.cfg").write_text(DESK_CFG)
    point, broken = _BROKEN[suite]
    code = ("import sys, numpy as np, reslab.analytic, reslab.charsums, "
            f"reslab.cli\n{broken}\n"
            "sys.exit(reslab.cli.main(['--config', 'run.cfg', 'verify', "
            f"{suite!r}]))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC,
                                   RESLAB_WORKERS="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_ASSERT, proc.stdout + proc.stderr
    assert f"FAIL [{suite}]" in proc.stdout
    rep = json.loads((tmp_path / "out" / f"verify_{suite}.json").read_text())
    assert rep["passed"] is False
    assert rep["error"].startswith(f"{point} = ")
    assert "gap" in rep["error"]
