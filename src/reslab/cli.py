"""Command-line front end.

Subcommands: params | verify <suite> | ratio | scan-s | afe.  Configuration
is plain ``key = value`` text (UTF-8, '#' comments, no nesting); reports are
JSON written atomically (temp file + rename) so a failed run leaves no
partial outputs.

Exit codes: 0 pass, 1 assertion failure, 2 config error, 3 work-estimate
abort.  Config errors include a schedule value (D, a, L, x, B, Z or a
band edge) that is NaN or infinite, a RESLAB_WORKERS that is not a positive
integer, an ``afe --d`` up to charsums.MAX_D_EXACT that is not odd and
squarefree, a ``ratio`` whose family holds no admissible d
(charsums.EmptyFamilyError), a ``ratio --checkpoint`` whose directory does
not exist, a checkpoint file that is not a scan checkpoint, belongs to
another run, or disagrees with the recomputed chunks, and a ``scan-s``
whose npoints is below 1 or whose y_lo, y_hi are not finite with 0 < y_lo
< y_hi.  Work-estimate aborts (charsums.WorkEstimateError) are a ``ratio``
past the scan's guards on D, support size and x, a schedule whose support
holds more than resonator.MAX_SUPPORT entries (resonator.SupportTooLarge,
raised while it is enumerated), an ``afe --d`` above
charsums.MAX_D_EXACT, where the oracle would need O(d) memory and time,
a ``scan-s --y-hi`` above charsums.MAX_X, and any command whose sign
assignment asks for a partial sum S(x/p) above charsums.MAX_X.  Each ends
with one line on stderr, not a traceback.

``ratio`` writes family_sums.csv from the same pass over the family that
computes the report: the process that scans a chunk also formats its CSV
lines, and the scan hands each chunk's line bytes, in chunk order, to a
sink here that only writes them.

Reports are deterministic: the canonical serialization excludes timing, and
all family reductions happen in fixed chunk order, so identical configs
produce bit-identical report bytes regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__, analytic, arith, charsums, resonator, sieve, smoothing

EXIT_PASS = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_WORK = 3


class ConfigError(ValueError):
    pass


_FLOAT_KEYS = {"a", "L", "x", "B", "Z", "pminus_lo", "pminus_hi"}
_INT_KEYS = {"D", "workers", "seed"}
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
    workers: int | None = None
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
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.parse(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e

    def emit(self) -> str:
        lines = [f"{key} = {getattr(self, key)}" for key in sorted(_ALL_KEYS)
                 if getattr(self, key) is not None]
        return "\n".join(lines) + "\n"

    def to_params(self) -> resonator.ResonatorParams:
        kw = {}
        for key in ("L", "x", "B", "Z", "pminus_lo", "pminus_hi"):
            v = getattr(self, key)
            if v is not None:
                kw[key] = v
        return resonator.build_params(self.D, a=self.a, mode=self.mode, **kw)

    def worker_count(self) -> int:
        """RESLAB_WORKERS, else the config's workers, else the CPU count."""
        if self.workers and not os.environ.get("RESLAB_WORKERS"):
            return self.workers
        try:
            return charsums.default_workers()
        except ValueError as e:
            raise ConfigError(str(e)) from e


def atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def canonical_json(payload: dict) -> str:
    """Stable bytes: sorted keys, repr-exact floats, timing excluded."""
    trimmed = {k: v for k, v in payload.items() if k != "timing"}
    return json.dumps(trimmed, sort_keys=True, indent=1, default=repr)


def write_report(outdir: str, name: str, payload: dict) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    atomic_write(path, canonical_json(payload) + "\n")
    return path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_params(cfg: RunConfig) -> int:
    try:
        params = cfg.to_params()
    except resonator.ParamsError as e:
        print(f"INFEASIBLE: {e}")
        return EXIT_CONFIG
    print("verdict: FEASIBLE")
    for key in ("mode", "D", "a", "delta", "x", "Z", "Y", "L", "B",
                "pminus_lo", "pminus_hi"):
        print(f"  {key} = {getattr(params, key)}")
    table = resonator.build_table(params)
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
    return params, table, signs, kernel


def cmd_ratio(cfg: RunConfig, checkpoint: str | None = None) -> int:
    t0 = time.time()
    params, table, signs, kernel = _build_pipeline(cfg)
    workers = cfg.worker_count()
    with _family_csv(cfg.outdir) as sink:
        report = charsums.pigeonhole_extract(
            params, table, signs, kernel, workers=workers,
            checkpoint=checkpoint, sink=sink)
    ok = report.extremal_value <= report.ratio + 1e-9 * abs(report.ratio)
    payload = {
        "version": __version__,
        "config": {k: getattr(cfg, k) for k in sorted(_ALL_KEYS)},
        "results": {
            "den_exact": report.Den,
            "den_asymptotic": charsums.denominator_asymptotic(params, table),
            "sigma1": report.sigma1,
            "sigma2": report.sigma2,
            "N": report.N,
            "ratio": report.ratio,
            "extremal_d": report.extremal_d,
            "extremal_value": report.extremal_value,
        },
        "diagnostics": {
            "offdiag_bound_observed": report.offdiag_bound_observed,
            "admissible": report.admissible,
            "sum_rplus_sq": report.sum_rplus_sq,
            "support_size": len(table.support),
            "pigeonhole_holds": bool(ok),
        },
        "timing": {"seconds": time.time() - t0},
    }
    path = write_report(cfg.outdir, "ratio_report.json", payload)
    print(f"report: {path}")
    print(f"ratio N/Den = {report.ratio!r}")
    print(f"extremal d* = {report.extremal_d}, sum = {report.extremal_value!r}")
    if not ok:
        print("FAIL: pigeonhole violated")
        return EXIT_ASSERT
    return EXIT_PASS


@contextlib.contextmanager
def _family_csv(outdir: str):
    """A scan sink that streams the rows d, T(d), R(d)^2 to
    family_sums.csv.  The scan hands over each chunk's CSV lines already
    formatted, so the sink writes bytes; they go to a temp file, renamed
    into place only when the scan completes."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "family_sums.csv")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(charsums.FAMILY_CSV_HEADER)
            yield fh.write
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def cmd_scan_s(cfg: RunConfig, y_lo: float, y_hi: float, npoints: int) -> int:
    if npoints < 1:
        raise ConfigError(f"need npoints >= 1, got {npoints}")
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        raise ConfigError(f"need finite y_lo and y_hi, got {y_lo} and {y_hi}")
    if not (0 < y_lo < y_hi):
        raise ConfigError("need 0 < y_lo < y_hi")
    if y_hi > charsums.MAX_X:
        raise charsums.WorkEstimateError(
            f"scan-s guard: need y_hi <= {charsums.MAX_X}, got {y_hi}")
    params, table, signs, kernel = _build_pipeline(cfg)
    ys = np.exp(np.linspace(math.log(y_lo), math.log(y_hi), npoints))
    rows = [(float(y), kernel.S(float(y)), kernel.S_star(float(y)),
             kernel.S_tilde(float(y))) for y in ys]
    os.makedirs(cfg.outdir, exist_ok=True)
    path = os.path.join(cfg.outdir, "scan_s.csv")
    tmp = path + ".tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(["y", "S", "S_star", "S_tilde"])
        for row in rows:
            wr.writerow([repr(v) for v in row])
    os.replace(tmp, path)

    # best dyadic window [A/2, A] for int |S~| dy/y, capped at A <= U
    lx = math.log(params.x)
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
    write_report(cfg.outdir, "scan_s.json", payload)
    print(f"csv: {path}")
    print(f"best dyadic window A = {best_A} (mass {best_mass}), U = {U:.6g}")
    return EXIT_PASS


def cmd_afe(cfg: RunConfig, dvals: list[int]) -> int:
    rows = []
    worst = 0.0
    for d in dvals:
        # the oracle first, so that for d > MAX_D_EXACT its guard is the
        # one that refuses the run, before any AFE work
        oracle = charsums.dirichlet_l_half(d)
        afe = charsums.afe_central_value(d)
        gap = abs(afe.value - oracle)
        worst = max(worst, gap)
        rows.append({"d": d, "value": afe.value, "oracle": oracle,
                     "gap": gap, "tail_bound": afe.tail_bound,
                     "terms": afe.terms})
        print(f"d = {d}: L(1/2) = {afe.value!r} (oracle gap {gap:.3e})")
    write_report(cfg.outdir, "afe_report.json", {"values": rows, "worst_gap": worst})
    if worst > 1e-6:
        print(f"FAIL: worst oracle gap {worst:.3e} > 1e-6")
        return EXIT_ASSERT
    return EXIT_PASS


# --------------------------------------------------------------------------
# verify suites
# --------------------------------------------------------------------------

def _suite_arith(cfg):
    import random
    rng = random.Random(cfg.seed)
    for _ in range(2000):
        m = rng.randrange(-10**6, 10**6)
        n1 = rng.randrange(1, 10**4) * 2 + 1
        n2 = rng.randrange(1, 10**4) * 2 + 1
        assert arith.kronecker(m, n1 * n2) == arith.kronecker(m, n1) * arith.kronecker(m, n2)
    return {"multiplicativity_trials": 2000}


def _suite_trig(cfg):
    th = np.linspace(5 * math.pi / 6, 7 * math.pi / 6, 200001)
    vals = (2 * np.cos(th) + 1) * np.cos(th)
    mn = float(np.min(vals))
    assert abs(mn - analytic.TRIG_MIN) < 1e-9
    assert abs(vals[0] - analytic.TRIG_MIN) < 1e-12
    assert abs(vals[-1] - analytic.TRIG_MIN) < 1e-12
    return {"min": mn, "expected": analytic.TRIG_MIN}


def _suite_orthogonality(cfg):
    out = {}
    for n in (1, 9, 25):
        exact, main, err = charsums.orthogonality_check(n, min(cfg.D, 10**5))
        rel = abs(err) / main
        assert rel < 0.02, f"n = {n}: relative error {rel}"
        out[str(n)] = {"exact": exact, "main": main, "rel": rel}
    return out


def _small_table():
    """A few-prime instance small enough for the exhaustive checks."""
    params = resonator.build_params(
        10**6, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
        pminus_lo=10.0, pminus_hi=20.0)
    table = resonator.build_table(params)
    kernel = charsums.PartialSumKernel(table)
    table = table.with_signs(resonator.assign_signs(table, kernel.S))
    return params, table


def _suite_trunc(cfg):
    params, table = _small_table()
    rep = analytic.verify_rankin_truncations(table, params)
    assert rep.identity_gap < 1e-10
    assert rep.tail_lhs <= rep.tail_rhs
    assert rep.square_gap_flat < 0.01 and rep.square_gap_weighted < 0.01
    return asdict(rep)


def _suite_factorization(cfg):
    params, table, signs, kernel = _build_pipeline(cfg)
    rows = []
    worst = 0.0
    for s in (0.05, 0.1, 0.3, 0.6, 1.0, 0.3 + 0.2j, 0.1 + 1j, 0.6 - 0.5j,
              1.0 + 2j, 0.05 + 0.3j, 0.8 + 0.1j, 0.4 - 1.5j):
        fd = analytic.F_direct(complex(s), table)
        ff, fcert = analytic.F_factored_bounded(complex(s), table)
        gap = abs(fd.value - ff)
        cert = 1e-6 + fd.tail + fcert
        assert gap <= cert, f"s = {s}: gap {gap} > cert {cert}"
        worst = max(worst, gap - cert)
        rows.append({"s": str(s), "gap": gap, "cert": cert})
    return {"points": rows, "worst_over_cert": worst}


def _suite_contour(cfg):
    params, table, signs, kernel = _build_pipeline(cfg)
    out = {}
    for y in (2.0, 5.0, 10.0):
        cv = analytic.S_via_contour(y, table)
        direct = kernel.S(y)
        gap = abs(cv.value - direct)
        assert gap <= cv.err_estimate + 1e-6
        out[str(y)] = {"contour": cv.value, "direct": direct, "gap": gap}
    return out


def _suite_gallagher(cfg):
    rep = sieve.sieve_inequality_check(25, seed=cfg.seed, sigma=0.25)
    return rep.to_dict()


def _suite_afe(cfg):
    worst = 0.0
    for d in (1, 3, 5, 11, 13, 21, 101):
        gap = abs(charsums.afe_central_value(d).value - charsums.dirichlet_l_half(d))
        assert gap < 1e-6
        worst = max(worst, gap)
    return {"worst_gap": worst}


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
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
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
    r = sub.add_parser("ratio")
    r.add_argument("--checkpoint", default=None)
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
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "ratio":
            return cmd_ratio(cfg, checkpoint=args.checkpoint)
        if args.command == "scan-s":
            return cmd_scan_s(cfg, args.y_lo, args.y_hi, args.npoints)
        if args.command == "afe":
            return cmd_afe(cfg, args.d)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, resonator.ParamsError, arith.InvalidDiscriminant,
            charsums.CheckpointError, charsums.EmptyFamilyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (charsums.WorkEstimateError, resonator.SupportTooLarge) as e:
        print(f"work estimate exceeded: {e}", file=sys.stderr)
        return EXIT_WORK
    except (AssertionError, smoothing.AccuracyError) as e:
        print(f"assertion failed: {e}", file=sys.stderr)
        return EXIT_ASSERT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
