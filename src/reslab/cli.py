"""Command-line front end.

Subcommands: params | verify <suite> | ratio | scan-s | afe.  Configuration
is plain ``key = value`` text (UTF-8, '#' comments, no nesting); reports are
JSON.  Every file is written through atomic_output (temp file + rename),
so a failed run leaves no file half written; a command's report is written
inside its CSV's block, so a failed report leaves no new CSV either.

Exit codes: 0 pass, 1 failed check, 2 config error, 3 work-estimate abort.
The ``verify`` suites only call reslab.checks, which alone decides a
check: a failed check is a checks.CheckFailed, raised by an explicit test,
not an ``assert``, so ``python -O`` keeps it.  Config errors include a
config file that cannot be read or is not UTF-8, a negative seed, a
schedule value (D, a, L, x, B, Z or a band edge) that is NaN, infinite or
past the float range, or whose derivation (Z = x^1.5, a band edge
L^(5 pi/3)) overflows a float, a band that admits the prime 2 (pminus_lo
<= 2 or B/4 <= 2), a RESLAB_WORKERS that is not a positive integer, an
``afe --d`` up to charsums.MAX_D_EXACT that is not odd and squarefree, a
``ratio`` whose family holds no admissible d (charsums.EmptyFamilyError),
a ``scan-s`` whose npoints is below 1 or whose y_lo, y_hi are not finite
with 0 < y_lo < y_hi, an outdir that is empty or cannot be a directory
because a file stands on its path, and an output path that cannot be
written; a command that writes checks its outdir before any work, but
creates it only when it writes, and removes what it created, if still
empty, when it fails.  Work-estimate aborts are one class,
resonator.WorkEstimateError: a schedule whose B or pminus_hi is above
resonator.MAX_SIEVE (checked before the bands are sieved), a ``ratio``
past the scan's guards on D, support size and x, or whose residue tables
would pass charsums.MAX_TABLE_ENTRIES entries, a schedule whose support
holds more than resonator.MAX_SUPPORT entries (raised while it is
enumerated), an ``afe --d`` above charsums.MAX_D_EXACT, where the oracle
would need O(d) memory and time, a ``scan-s --y-hi`` above charsums.MAX_X,
and any command whose sign assignment asks for a partial sum S(x/p) above
charsums.MAX_X.  Each ends with one line on stderr, not a traceback.

The worker count of ``ratio``'s family scan is RESLAB_WORKERS, else the
number of CPUs this process may run on (its affinity mask); it has no
config key.  The config ``seed`` feeds the trials of the ``arith`` and
``gallagher`` verify suites, each through Python's ``random.Random(seed)``.

``ratio`` writes charsums.pigeonhole_extract's RatioReport, split into
``results`` and ``diagnostics``, and family_sums.csv from the same pass
over the family: the process that scans a chunk also writes its CSV lines,
to a part file of its own, and this process only concatenates the parts,
in chunk order, into the file opened here.

Reports are deterministic: all family reductions happen in fixed chunk
order, so identical configs produce bit-identical report bytes regardless
of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__, analytic, arith, charsums, checks, resonator, smoothing

EXIT_PASS = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_WORK = 3


class ConfigError(ValueError):
    pass


_FLOAT_KEYS = {"a", "L", "x", "B", "Z", "pminus_lo", "pminus_hi"}
_INT_KEYS = {"D", "seed"}
_STR_KEYS = {"mode", "outdir"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    mode: str = "explicit"
    D: int = 10**6
    a: float | None = None
    L: float | None = None
    x: float | None = None
    B: float | None = None
    Z: float | None = None
    pminus_lo: float | None = None
    pminus_hi: float | None = None
    seed: int = 0
    outdir: str = "."

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _ALL_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                if key in _FLOAT_KEYS:
                    setattr(cfg, key, float(val))
                elif key in _INT_KEYS:
                    setattr(cfg, key, int(val))
                else:
                    setattr(cfg, key, val)
            except ValueError as e:
                raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from e
        if cfg.mode not in ("asymptotic", "explicit"):
            raise ConfigError(f"mode must be asymptotic or explicit, got {cfg.mode!r}")
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.parse(fh.read())
        except (OSError, UnicodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e

    def to_params(self) -> resonator.ResonatorParams:
        kw = {}
        for key in ("L", "x", "B", "Z", "pminus_lo", "pminus_hi"):
            v = getattr(self, key)
            if v is not None:
                kw[key] = v
        return resonator.build_params(self.D, a=self.a, mode=self.mode, **kw)


@contextlib.contextmanager
def atomic_output(path: str):
    """A binary file on path + ".tmp", in a directory made if missing;
    renamed to path when the block completes, removed on any error, and
    with it each directory made here that is still empty."""
    made = []
    head = os.path.dirname(path)
    while head and not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def canonical_json(payload: dict) -> str:
    """Stable bytes: sorted keys, repr-exact floats."""
    return json.dumps(payload, sort_keys=True, indent=1, default=repr)


def _check_outdir(outdir: str) -> None:
    """Refuse an outdir that os.makedirs could not create: it must not be
    empty, and the nearest existing path along it must be a directory."""
    if not outdir:
        raise ConfigError("outdir is empty")
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"outdir {outdir!r}: {path} is not a directory")


def write_report(outdir: str, name: str, payload: dict) -> str:
    path = os.path.join(outdir, name)
    with atomic_output(path) as fh:
        fh.write((canonical_json(payload) + "\n").encode())
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_params(cfg: RunConfig) -> int:
    params = cfg.to_params()
    table = resonator.build_table(params)
    print("verdict: FEASIBLE")
    for key in ("mode", "D", "a", "delta", "x", "Z", "Y", "L", "B",
                "pminus_lo", "pminus_hi"):
        print(f"  {key} = {getattr(params, key)}")
    print(f"  low band: {len(table.pminus)} primes "
          f"[{params.pminus_lo:.4f}, {params.pminus_hi:.4f})")
    print(f"  high band: {len(table.pplus)} primes")
    return EXIT_PASS


def _build_pipeline(cfg: RunConfig):
    params = cfg.to_params()
    table = resonator.build_table(params)
    kernel = charsums.PartialSumKernel(table)
    signs = resonator.assign_signs(table, kernel.S)
    # the kernel reads only the low band, which signs and support leave alone
    table = table.with_signs(signs).with_support()
    return table, signs, kernel


# the RatioReport fields under "results"; the others are "diagnostics"
_RESULTS = ("den_exact", "den_asymptotic", "sigma1", "sigma2", "N", "ratio",
            "extremal_d", "extremal_value")


def cmd_ratio(cfg: RunConfig) -> int:
    try:
        workers = charsums.default_workers()
    except ValueError as e:
        raise ConfigError(str(e)) from e
    table, signs, kernel = _build_pipeline(cfg)
    with atomic_output(os.path.join(cfg.outdir, "family_sums.csv")) as rows:
        report = charsums.pigeonhole_extract(
            table, signs, kernel, workers=workers, rows=rows)
        diagnostics = asdict(report)
        results = {key: diagnostics.pop(key) for key in _RESULTS}
        path = write_report(cfg.outdir, "ratio_report.json", {
            "version": __version__,
            "config": {k: getattr(cfg, k) for k in sorted(_ALL_KEYS)},
            "results": results,
            "diagnostics": diagnostics,
        })
    print(f"report: {path}")
    print(f"ratio N/Den = {report.ratio!r}")
    print(f"extremal d* = {report.extremal_d}, sum = {report.extremal_value!r}")
    if not report.pigeonhole_holds:
        print("FAIL: pigeonhole violated")
        return EXIT_ASSERT
    return EXIT_PASS


def cmd_scan_s(cfg: RunConfig, y_lo: float, y_hi: float, npoints: int) -> int:
    if npoints < 1:
        raise ConfigError(f"need npoints >= 1, got {npoints}")
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        raise ConfigError(f"need finite y_lo and y_hi, got {y_lo} and {y_hi}")
    if not (0 < y_lo < y_hi):
        raise ConfigError("need 0 < y_lo < y_hi")
    if y_hi > charsums.MAX_X:
        raise resonator.WorkEstimateError(
            f"scan-s guard: need y_hi <= {charsums.MAX_X}, got {y_hi}")
    table, _, kernel = _build_pipeline(cfg)
    ys = np.exp(np.linspace(math.log(y_lo), math.log(y_hi), npoints))
    rows = [(float(y), kernel.S(float(y)), kernel.S_star(float(y)),
             kernel.S_tilde(float(y))) for y in ys]

    # best dyadic window [A/2, A] for int |S~| dy/y, capped at A <= U
    lx = math.log(table.params.x)
    U = math.exp(math.sqrt(lx) * math.log(lx) ** 2)
    best_A, best_mass = None, -1.0
    for A in ys:
        A = float(A)
        if A < 2.0 or A > U:
            continue
        win = [(y, abs(st)) for (y, _, _, st) in rows if A / 2 <= y <= A]
        if len(win) < 2:
            continue
        yv = np.array([y for y, _ in win])
        fv = np.array([v for _, v in win])
        mass = float(np.trapezoid(fv / yv, yv))
        if mass > best_mass:
            best_A, best_mass = A, mass
    payload = {"U": U, "best_A": best_A, "best_window_mass": best_mass,
               "npoints": npoints, "y_lo": y_lo, "y_hi": y_hi}
    path = os.path.join(cfg.outdir, "scan_s.csv")
    # repr floats never need quoting; \r\n ends each line, as in RFC 4180
    lines = ["y,S,S_star,S_tilde"] + [",".join(map(repr, row)) for row in rows]
    with atomic_output(path) as fh:
        fh.write("".join(line + "\r\n" for line in lines).encode())
        write_report(cfg.outdir, "scan_s.json", payload)
    print(f"csv: {path}")
    print(f"best dyadic window A = {best_A} (mass {best_mass}), U = {U:.6g}")
    return EXIT_PASS


def cmd_afe(cfg: RunConfig, dvals: list[int]) -> int:
    try:
        rows, failure = checks.central_values(dvals), None
    except checks.CheckFailed as e:
        rows, failure = e.rows, e
    for row in rows:
        print(f"d = {row['d']}: L(1/2) = {row['value']!r} "
              f"(oracle gap {row['gap']:.3e})")
    write_report(cfg.outdir, "afe_report.json",
                 {"values": rows, "worst_gap": checks.worst(rows)["gap"]})
    if failure:
        print(f"FAIL: {failure}")
        return EXIT_ASSERT
    return EXIT_PASS


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------

def _suite_arith(cfg):
    trials = checks.kronecker_multiplicativity(cfg.seed)
    return {"multiplicativity_trials": trials}


def _suite_trig(cfg):
    rows = checks.trig_minimum(200001)
    return {"min": min(row["value"] for row in rows),
            "expected": analytic.TRIG_MIN}


def _suite_orthogonality(cfg):
    rows = checks.orthogonality((1, 9, 25), min(cfg.D, 10**5))
    return {str(row["n"]): {"exact": row["exact"], "main": row["main"],
                            "rel": row["gap"], "bound": row["bound"],
                            "margin": row["margin"]} for row in rows}


def _suite_trunc(cfg):
    # a few-prime schedule, small enough for the exhaustive checks
    table, _, _ = _build_pipeline(RunConfig(
        L=math.e, x=30.0, B=30.0, Z=150.0, pminus_lo=10.0, pminus_hi=20.0))
    return {row.pop("identity"): row for row in checks.rankin(table)}


def _suite_factorization(cfg):
    table, _, _ = _build_pipeline(cfg)
    rows = checks.factorization(
        (0.05, 0.1, 0.3, 0.6, 1.0, 0.3 + 0.2j, 0.1 + 1j, 0.6 - 0.5j,
         1.0 + 2j, 0.05 + 0.3j, 0.8 + 0.1j, 0.4 - 1.5j), table)
    return {"points": [{"s": str(row["s"]), "gap": row["gap"],
                        "bound": row["bound"], "margin": row["margin"]}
                       for row in rows],
            "worst_over_cert": checks.worst(rows)["margin"]}


def _suite_contour(cfg):
    table, _, kernel = _build_pipeline(cfg)
    ys = (2.0, 5.0, 10.0)
    rows = checks.contour(ys, analytic.S_via_contour(ys, table), kernel)
    return {str(row.pop("y")): row for row in rows}


def _suite_gallagher(cfg):
    report = checks.gallagher(25, cfg.seed, 0.25)
    return {k: v for k, v in asdict(report).items() if k != "sides"}


def _suite_afe(cfg):
    rows = checks.central_values((1, 3, 5, 11, 13, 21, 101))
    return {"worst_gap": checks.worst(rows)["gap"]}


SUITES = {
    "arith": _suite_arith,
    "trunc": _suite_trunc,
    "factorization": _suite_factorization,
    "contour": _suite_contour,
    "gallagher": _suite_gallagher,
    "trig": _suite_trig,
    "orthogonality": _suite_orthogonality,
    "afe": _suite_afe,
}


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    try:
        result = SUITES[suite](cfg)
    except (AssertionError, smoothing.AccuracyError) as e:
        print(f"FAIL [{suite}]: {e}")
        write_report(cfg.outdir, f"verify_{suite}.json",
                     {"suite": suite, "passed": False, "error": str(e)})
        return EXIT_ASSERT
    write_report(cfg.outdir, f"verify_{suite}.json",
                 {"suite": suite, "passed": True, "result": result})
    print(f"PASS [{suite}]")
    return EXIT_PASS


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reslab")
    ap.add_argument("--config", help="path to key = value config file")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("params")
    v = sub.add_parser("verify")
    v.add_argument("suite", choices=sorted(SUITES))
    sub.add_parser("ratio")
    s = sub.add_parser("scan-s")
    s.add_argument("--y-lo", type=float, default=2.0)
    s.add_argument("--y-hi", type=float, default=400.0)
    s.add_argument("--npoints", type=int, default=80)
    a = sub.add_parser("afe")
    a.add_argument("--d", type=int, nargs="+", required=True)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.command == "params":
            return cmd_params(cfg)
        _check_outdir(cfg.outdir)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "ratio":
            return cmd_ratio(cfg)
        if args.command == "scan-s":
            return cmd_scan_s(cfg, args.y_lo, args.y_hi, args.npoints)
        if args.command == "afe":
            return cmd_afe(cfg, args.d)
    except (ConfigError, resonator.ParamsError, arith.InvalidDiscriminant,
            charsums.EmptyFamilyError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except resonator.WorkEstimateError as e:
        print(f"work estimate exceeded: {e}", file=sys.stderr)
        return EXIT_WORK
    except (AssertionError, smoothing.AccuracyError) as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return EXIT_ASSERT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
