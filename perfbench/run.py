"""Benchmark for reslab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/reslab``; the program
is imported from there.  NAME is one of the workloads in WORKLOADS, or
``all`` to run each in turn and print every end-to-end metric by name.

Every operation (one CLI command, or one check by public calls) runs in a
fresh process, from its own temporary directory, which is deleted once its
outputs have been checked.  A run first times the workload's set-up in a few
fresh processes, then repeats the workload's short operations while the next
iteration still ends inside ``--seconds``, and reports medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each of
the workload's operations (for ``certify-desk`` also the contour and
autocorrelation checks) once untraced and once under ``child.py --spans``,
checks that both give byte-identical outputs, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"

DEADLINE_S = 170.0  # every run ends well inside 180 s
SETUP_PROBES = 5
LAYERS = ("arith", "resonator", "smoothing", "charsums", "analytic", "sieve", "cli")


def desk_config(D, seed):
    """The desk schedule (L = 2, x = B = 200, Z = x^1.5) at family size D."""
    return (f"mode = explicit\nD = {D}\nL = 2\nx = 200\nB = 200\n"
            f"Z = {200.0 ** 1.5!r}\nseed = {seed}\noutdir = out\n")


END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "throughput_dps": "1/s", "pass_frac": "frac",
}

PER_LAYER = {
    "import.reslab_s": "s",
    "resonator.build_table_s": "s",
    "resonator.assign_signs_s": "s",
    "resonator.with_support_s": "s",
    "resonator.support_size": "count",
    "charsums.PartialSumKernel.S_s": "s",
    "charsums.PartialSumKernel.S_calls": "count",
    "charsums.scan_family_s": "s",
    "charsums.scan_family_cpu_s": "s",
    "charsums.scan_family_dps": "1/s",
    "charsums.scan_family.admissible": "count",
    "charsums.scan_family.chunks": "count",
    "charsums.scan_family.useful_frac": "frac",
    "charsums.scan_family.speedup_w2": "x",
    "charsums.pigeonhole_extract.self_s": "s",
    "charsums.pigeonhole_extract.beyond_scan_s": "s",
    "charsums.afe_central_value_s": "s",
    "charsums.dirichlet_l_half_s": "s",
    "charsums.dirichlet_l_half.kronecker_evals": "count",
    "cli.cmd_ratio.self_s": "s",
    "cli.family_csv_bytes": "bytes",
    "cli.family_csv_rows": "count",
    "cli.cmd_verify.factorization_s": "s",
    "cli.cmd_verify.gallagher_s": "s",
    "analytic.F_direct_s": "s",
    "analytic.F_factored_bounded_s": "s",
    "analytic.S_via_contour_s": "s",
    "analytic.S_via_contour.self_s": "s",
    "analytic.S_via_contour_calls": "count",
    "smoothing.mellin_phi_s": "s",
    "smoothing.mellin_phi_calls": "count",
    "sieve.sieve_inequality_check_s": "s",
    "sieve.autocorrelation_identity_check_s": "s",
    "sieve.autocorrelation_sigma_calls": "count",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def primes_between(lo, hi):
    """Odd primes p in [lo, hi]; for each, 2p is squarefree."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(hi ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi + 1, p)))
    return [p for p in range(max(lo, 3), hi + 1) if sieve[p]]


# --------------------------------------------------------------------------
# processes
# --------------------------------------------------------------------------

@dataclass
class Op:
    """One operation: a CLI command or a check made by public calls."""
    name: str
    args: list          # child.py arguments; a CLI command starts with "cli"
    layer: str          # where a failed gate is counted
    gate: object        # (run dir, stdout, outputs) -> list of problems
    config: str = ""    # written to run.cfg when not empty
    workers: int = 0    # RESLAB_WORKERS, when not 0


@dataclass
class Result:
    op: Op
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    outputs: dict       # file -> (sha256, bytes, lines)
    trace: dict | None = None


class Runner:
    """Spawns operations under a deadline, each in its own work directory."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.dir = WORK / f"run-{os.getpid()}"
        self.count = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.t0)

    def new_dir(self):
        self.count += 1
        path = self.dir / f"op{self.count}"
        path.mkdir(parents=True)
        return path

    def spawn(self, argv, cwd, workers=0):
        """(wall, cpu, peak rss MB, exit code, stdout, spawn time) of one
        process; cpu and rss include its reaped descendants."""
        # One OpenBLAS thread per process: its default pool of nproc threads
        # runs more threads than cores, and on a shared 2-CPU host that made
        # the verify suites take 3.3 s or 4.3 s depending on the neighbours.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        env.pop("RESLAB_WORKERS", None)
        if workers:
            env["RESLAB_WORKERS"] = str(workers)
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                    stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(max(1.0, self.remaining()), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the process left behind
        stdout = (cwd / "stdout").read_bytes()
        return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                proc.returncode, stdout, t0)

    def run(self, op, traced=False):
        cwd = self.new_dir()
        if op.config:
            (cwd / "run.cfg").write_text(op.config, encoding="utf-8")
        if op.args[0] == "cli" and not traced:
            argv = ["-m", "reslab.cli", *op.args[1:]]
        else:
            argv = [CHILD, *(["--spans", "spans.json"] if traced else []), *op.args]
        wall, cpu, rss, code, stdout, _ = self.spawn(argv, cwd, op.workers)
        outputs = digest_outputs(cwd)
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            problems += op.gate(cwd, stdout.decode(), outputs)
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"outputs unreadable: {e}")
        res = Result(op, wall, cpu, rss, problems, outputs)
        if traced:
            try:
                res.trace = json.loads((cwd / "spans.json").read_text())
            except (OSError, ValueError) as e:
                res.problems.append(f"no spans: {e}")
        shutil.rmtree(cwd)
        return res

    def setup_time(self, args, config):
        """Seconds from spawn until the child reports its inputs ready."""
        cwd = self.new_dir()
        (cwd / "run.cfg").write_text(config, encoding="utf-8")
        _, _, _, code, stdout, t0 = self.spawn([CHILD, *args], cwd)
        shutil.rmtree(cwd)
        for line in stdout.decode().splitlines():
            if code == 0 and line.startswith("ready "):
                return float(line.split()[1]) - t0
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def digest_outputs(cwd):
    """sha256, size and line count of stdout and of every file under out/."""
    files = [cwd / "stdout"]
    if (cwd / "out").is_dir():
        files += sorted(p for p in (cwd / "out").rglob("*") if p.is_file())
    out = {}
    for path in files:
        h, size, lines = hashlib.sha256(), 0, 0
        with open(path, "rb") as fh:
            while block := fh.read(1 << 22):
                h.update(block)
                size += len(block)
                lines += block.count(b"\n")
        out[str(path.relative_to(cwd))] = (h.hexdigest(), size, lines)
    return out


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def cli_gate(suite):
    def gate(cwd, stdout, outputs):
        rep = json.loads((cwd / "out" / f"verify_{suite}.json").read_text())
        if f"PASS [{suite}]" not in stdout or not rep.get("passed"):
            return [f"suite {suite} did not pass"]
        return []
    return gate


def pass_gate(tag):
    def gate(cwd, stdout, outputs):
        return [] if f"PASS [{tag}]" in stdout else [f"{tag} check failed"]
    return gate


class Ratio:
    """reslab ratio on the desk schedule at D = 10^6."""
    name = "ratio-desk"
    why = ("reslab ratio on the desk schedule at D=1e6, 2 workers: the family scan, "
           "sigma diagnostics and the CSV emission; replaces ratio-1e7, whose 14 s "
           "runs could not be made steady")
    D = 10**6
    # the desk report frozen in tests/test_charsums.py
    expect = {"extremal_d": 958411, "extremal_value": -1.4447768947677382,
              "ratio": 1.5965373185237024}
    admissible = 202646

    def __init__(self, seed, workers):
        self.seed = seed  # unused: the workload is deterministic
        self.workers = workers
        self.config = desk_config(self.D, 0)

    def setup_args(self):
        return ["setup", "run.cfg"]

    def items(self):
        return self.admissible

    def gate(self, cwd, stdout, outputs):
        rep = json.loads((cwd / "out" / "ratio_report.json").read_text())
        res, diag = rep["results"], rep["diagnostics"]
        problems = [] if diag["pigeonhole_holds"] else ["pigeonhole fails"]
        problems += [f"{k} = {res[k]!r}, expected {v!r}"
                     for k, v in self.expect.items() if res[k] != v]
        if diag["admissible"] != self.admissible:
            problems.append(f"{diag['admissible']} admissible d, expected {self.admissible}")
        rows = outputs["out/family_sums.csv"][2]
        if rows != diag["admissible"] + 1:
            problems.append(f"CSV has {rows} rows, expected {diag['admissible'] + 1}")
        return problems

    def op(self, name, workers):
        return Op(name, ["cli", "--config", "run.cfg", "ratio"], "charsums",
                  self.gate, self.config, workers)

    def ops(self, k):
        return [self.op("ratio", self.workers)]

    def traced_ops(self):
        return self.ops(0)

    def worker_check(self, runner, two, traced=False):
        """The ratio at 1 worker, gated as usual; its canonical report must
        also equal the one `two` wrote at the default worker count."""
        one = runner.run(self.op("ratio-1worker", 1), traced)
        report = "out/ratio_report.json"
        if one.outputs.get(report) != two.outputs.get(report):
            one.problems.append("report bytes differ at 1 worker")
        return one


class Certify:
    """The desk construction's analytic certificates."""
    name = "certify-desk"
    why = ("verify factorization and gallagher via the CLI on the desk config: "
           "the analytic and sieve layers; the traced run adds the contour and autocorrelation")
    D = 10**6
    contour_y = 5.0

    def __init__(self, seed, workers):
        self.seed = seed  # the gallagher suite's trials
        self.config = desk_config(self.D, seed)

    def setup_args(self):
        return ["setup", "run.cfg"]

    def items(self):
        # discriminants of the desk family whose construction is certified
        return Ratio.admissible

    def ops(self, k):
        return [Op(s, ["cli", "--config", "run.cfg", "verify", s], layer,
                   cli_gate(s), self.config)
                for s, layer in (("factorization", "analytic"), ("gallagher", "sieve"))]

    def traced_ops(self):
        # single operations of 10-20 s: too long to repeat in a measured run
        return self.ops(0) + [
            Op("contour", ["contour", "run.cfg", repr(self.contour_y)], "analytic",
               pass_gate("contour"), self.config),
            Op("autocorrelation", ["autocorr", "0.0"], "sieve",
               pass_gate("autocorrelation")),
        ]


class Central:
    """reslab afe, one process per d, on 8 seeded primes d near 10^5.

    The oracle's cost grows with phi(8d) as well as with d; prime d in a
    narrow window cost the same to within a few per cent, so the seed moves
    the inputs but not the work."""
    name = "central-values"
    why = ("reslab afe, one d per command, on 8 seeded primes d in (99000, 101000): "
           "point queries of the character at large conductor, no family sweep")
    window = (99_001, 101_000)
    count = 8
    config = "outdir = out\n"

    def __init__(self, seed, workers):
        self.seed = seed
        rng = random.Random(seed)
        self.ds = sorted(rng.sample(primes_between(*self.window), self.count))

    def setup_args(self):
        return ["import"]

    def items(self):
        return 1

    def gate_for(self, d):
        def gate(cwd, stdout, outputs):
            rep = json.loads((cwd / "out" / "afe_report.json").read_text())
            problems = []
            if [row["d"] for row in rep["values"]] != [d]:
                problems.append(f"report does not cover d = {d}")
            if not rep["worst_gap"] <= 1e-6:
                problems.append(f"worst_gap {rep['worst_gap']!r} > 1e-6")
            return problems
        return gate

    def ops(self, k):
        d = self.ds[k % self.count]
        return [Op(f"afe-{d}", ["cli", "--config", "run.cfg", "afe", "--d", str(d)],
                   "charsums", self.gate_for(d), self.config)]

    def traced_ops(self):
        return [op for k in range(self.count) for op in self.ops(k)]


WORKLOADS = {w.name: w for w in (Ratio, Certify, Central)}


# --------------------------------------------------------------------------
# untraced measurement
# --------------------------------------------------------------------------

def measure(wl, runner, seconds):
    """(end-to-end metrics, attempted, failed, problems, wall of each iteration).

    The set-up probes come first and warm the file cache; then the
    workload's operations repeat while the next iteration, as long as the
    last one, still ends inside `seconds` from the start.
    """
    start = time.monotonic()
    setups = [runner.setup_time(wl.setup_args(), wl.config) for _ in range(SETUP_PROBES)]
    problems = [f"setup probe {i} failed" for i, s in enumerate(setups) if s is None]
    setups = [s for s in setups if s is not None] or [float("nan")]

    iterations, attempted, failed = [], SETUP_PROBES, len(problems)
    while True:
        results = [runner.run(op) for op in wl.ops(len(iterations))]
        checks = []
        if not iterations and isinstance(wl, Ratio):
            # once per run, inside the measured seconds; not part of wall_s
            checks.append(wl.worker_check(runner, results[0]))
        iterations.append(results)
        attempted += len(results) + len(checks)
        for r in results + checks:
            failed += bool(r.problems)
            problems += [f"{r.op.name}: {p}" for p in r.problems]
        last = sum(r.wall_s for r in results)
        if (time.monotonic() - start + last > seconds
                or runner.remaining() < 2 * (last + sum(r.wall_s for r in checks))):
            break

    # an iteration's operations are slots; each slot's median, summed
    slots = list(zip(*iterations))
    walls = [sum(r.wall_s for r in it) for it in iterations]
    wall = sum(statistics.median(r.wall_s for r in slot) for slot in slots)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "cpu_s": sum(statistics.median(r.cpu_s for r in slot) for slot in slots),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in slot) for slot in slots),
        "throughput_dps": wl.items() / wall,
        "pass_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, problems, walls


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

def span_stats(spans):
    """Per span name: inclusive seconds and cpu of the outermost calls,
    self seconds, calls and exceptions."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[3] - s[2]
    stats = defaultdict(lambda: {"s": 0.0, "cpu_s": 0.0, "self_s": 0.0,
                                 "calls": 0, "failed": 0})
    for i, (name, parent, t0, t1, c0, c1, err, _) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child[i]
        st["failed"] += err
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][1]
        if parent < 0:
            st["s"] += t1 - t0
            st["cpu_s"] += c1 - c0
    return stats


def time_outside(spans, outer, inner):
    """Seconds inside `outer` spans not covered by their `inner` descendants."""
    total = sum(s[3] - s[2] for s in spans if s[0] == outer)
    for s in spans:
        if s[0] == inner:
            parent = s[1]
            while parent >= 0 and spans[parent][0] != outer:
                parent = spans[parent][1]
            if parent >= 0:
                total -= s[3] - s[2]
    return total


def extra(spans, name, key):
    vals = [s[7][key] for s in spans if s[0] == name and s[7]]
    return vals[-1] if vals else 0


def layer_metrics(wl, untraced, traced, speedup):
    m = dict.fromkeys(PER_LAYER, 0.0)
    spans_by_op = {r.op.name: r.trace["spans"] for r in traced if r.trace}
    stats = defaultdict(lambda: defaultdict(float))
    for spans in spans_by_op.values():
        for name, st in span_stats(spans).items():
            for k, v in st.items():
                stats[name][k] += v

    def total(name):
        return stats[name]["s"]

    m["import.reslab_s"] = statistics.median(r.trace["import_s"] for r in traced if r.trace)
    m["resonator.build_table_s"] = total("resonator.build_table")
    m["resonator.assign_signs_s"] = total("resonator.assign_signs")
    m["resonator.with_support_s"] = total("resonator.CoefficientTable.with_support")
    m["charsums.PartialSumKernel.S_s"] = total("charsums.PartialSumKernel.S")
    m["charsums.PartialSumKernel.S_calls"] = stats["charsums.PartialSumKernel.S"]["calls"]
    for key, name in (("charsums.afe_central_value_s", "charsums.afe_central_value"),
                      ("charsums.dirichlet_l_half_s", "charsums.dirichlet_l_half"),
                      ("analytic.F_direct_s", "analytic.F_direct"),
                      ("analytic.F_factored_bounded_s", "analytic.F_factored_bounded"),
                      ("analytic.S_via_contour_s", "analytic.S_via_contour"),
                      ("smoothing.mellin_phi_s", "smoothing.mellin_phi"),
                      ("sieve.sieve_inequality_check_s", "sieve.sieve_inequality_check"),
                      ("sieve.autocorrelation_identity_check_s",
                       "sieve.autocorrelation_identity_check")):
        m[key] = total(name)
    m["analytic.S_via_contour.self_s"] = stats["analytic.S_via_contour"]["self_s"]
    m["analytic.S_via_contour_calls"] = stats["analytic.S_via_contour"]["calls"]
    m["smoothing.mellin_phi_calls"] = stats["smoothing.mellin_phi"]["calls"]
    m["sieve.autocorrelation_sigma_calls"] = stats["sieve.autocorrelation_sigma"]["calls"]
    for suite in ("factorization", "gallagher"):
        if suite in spans_by_op:
            m[f"cli.cmd_verify.{suite}_s"] = span_stats(spans_by_op[suite])["cli.cmd_verify"]["s"]
    for spans in spans_by_op.values():
        m["resonator.support_size"] = max(m["resonator.support_size"], extra(
            spans, "resonator.CoefficientTable.with_support", "support_size"))

    if isinstance(wl, Ratio):
        spans = spans_by_op["ratio"]
        scan_s = total("charsums.scan_family")
        admissible = extra(spans, "charsums.scan_family", "admissible")
        visited = (wl.D - wl.D // 2 + 1) // 2  # odd d in (D/2, D]
        m.update({
            "charsums.scan_family_s": scan_s,
            "charsums.scan_family_cpu_s": stats["charsums.scan_family"]["cpu_s"],
            "charsums.scan_family_dps": admissible / scan_s if scan_s else 0.0,
            "charsums.scan_family.admissible": admissible,
            "charsums.scan_family.chunks": extra(spans, "charsums.scan_family", "chunks"),
            "charsums.scan_family.useful_frac": admissible / visited,
            "charsums.scan_family.speedup_w2": speedup,
            "charsums.pigeonhole_extract.self_s":
                stats["charsums.pigeonhole_extract"]["self_s"],
            "charsums.pigeonhole_extract.beyond_scan_s": time_outside(
                spans, "charsums.pigeonhole_extract", "charsums.scan_family"),
            "cli.cmd_ratio.self_s": stats["cli.cmd_ratio"]["self_s"],
        })
        csv = traced[0].outputs.get("out/family_sums.csv", (None, 0, 0))
        m["cli.family_csv_bytes"], m["cli.family_csv_rows"] = csv[1], csv[2]
    if isinstance(wl, Central):
        # computed from the inputs: the oracle evaluates (8d|a) for a < 8d
        m["charsums.dirichlet_l_half.kronecker_evals"] = sum(8 * d for d in wl.ds)

    for name, st in stats.items():
        m[f"{name.split('.')[0]}.failed"] += st["failed"]
    for r in traced:
        if r.problems:
            m[f"{r.op.layer}.failed"] += 1
    m["trace.overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
    return {k: int(v) if PER_LAYER[k] in ("count", "bytes") else v for k, v in m.items()}


def trace(wl, runner):
    """Per-layer metrics from one traced pass, checked against an untraced one."""
    untraced = [runner.run(op) for op in wl.traced_ops()]
    traced = [runner.run(op, traced=True) for op in wl.traced_ops()]
    problems = []
    for u, t in zip(untraced, traced):
        problems += [f"{u.op.name}: {p}" for p in u.problems]
        problems += [f"{t.op.name} traced: {p}" for p in t.problems]
        if u.outputs != t.outputs:
            t.problems.append("traced outputs differ from untraced")
            problems.append(f"{t.op.name}: traced outputs differ from untraced")
    attempted = len(untraced) + len(traced)
    failed = sum(bool(r.problems) for r in untraced + traced)

    speedup = 0.0
    if isinstance(wl, Ratio):
        # the worker-count check, traced, also times the scan at 1 worker
        one = wl.worker_check(runner, untraced[0], traced=True)
        attempted += 1
        if one.problems:
            failed += 1
            problems += [f"{one.op.name}: {p}" for p in one.problems]
        elif traced[0].trace:
            s1 = span_stats(one.trace["spans"])["charsums.scan_family"]["s"]
            s2 = span_stats(traced[0].trace["spans"])["charsums.scan_family"]["s"]
            speedup = s1 / s2 if s2 else 0.0
        traced_all = traced + [one]
    else:
        traced_all = traced

    if all(r.trace for r in traced_all):
        metrics = layer_metrics(wl, untraced, traced, speedup)
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
    TRACES.mkdir(exist_ok=True)
    with open(TRACES / f"{wl.name}-seed{wl.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({r.op.name: r.trace for r in traced_all}, fh)
    return metrics, attempted, failed, problems


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def host_info():
    info = {"nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0],
            "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return info


def run_one(name, seed, seconds, traced, host):
    wl = WORKLOADS[name](seed, min(2, host["nproc"]))
    runner = Runner()
    try:
        if traced:
            values, attempted, failed, problems = trace(wl, runner)
            units, iterations = PER_LAYER, 1
        else:
            values, attempted, failed, problems, walls = measure(wl, runner, seconds)
            units, iterations = END_TO_END, len(walls)
    finally:
        runner.close()
    for p in problems:
        print(f"FAILED {name}: {p}", file=sys.stderr)
    print(f"{name} (seed {seed}, {'traced' if traced else f'{iterations} iteration(s)'}):")
    for key, value in values.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:45s} {shown:>16} {units[key]}")
    if not traced:
        print(f"  {'fail_frac':45s} {failed / attempted:>16.6g} frac")
        print("  wall_s of each iteration: " + " ".join(f"{w:.3f}" for w in walls))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "reslab" / "cli.py").is_file():
        print(f"no reslab sources under {SRC}; run from a reslab checkout",
              file=sys.stderr)
        return 2
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace), host)
               for n in names}
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
