"""The desk outputs and their manifest, tests/golden_desk.json.

A simplification must leave every output byte-identical.  The manifest
holds the sha256 and byte size of each canonical artifact the commands
write on the desk schedule, with the Python and numpy versions and the CPU
model it was made on:

- ratio_report.json and family_sums.csv at D = 10^6, RESLAB_WORKERS=1;
- the eight verify_*.json;
- afe_report.json for AFE_DS;
- scan_s.csv and scan_s.json.

verify_contour.json comes from the three-prime schedule of
tests/test_cli.py's test_contour_suite, which compares its bytes here, so
the contour runs once per suite run.  The commands run through cli.main in
a fresh process whose working directory is a scratch directory, with
outdir "out", so no temporary path enters the bytes.  That process has one
BLAS thread, as perfbench's do.  No output is known to depend on the BLAS
thread count (analytic.F_direct sums its pairs with np.sum, not a BLAS
dot, and test_direct_independent_of_blas_threads holds it there), but
pinning it keeps the manifest's bytes from hanging on that.

To locate a mismatch without storing the outputs, a JSON artifact also
carries a short digest per leaf key, and a CSV one per block of lines.
After a change that moves an output on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/golden.py

which prints each artifact whose sha256 differs from the manifest it
replaces (an artifact new to the manifest counts as changed) and how many
stayed the same; name each changed artifact, and why, in CHANGES.md.
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile

import numpy as np

import reslab
from reslab import cli

HERE = pathlib.Path(__file__).parent
MANIFEST = HERE / "golden_desk.json"
SRC = pathlib.Path(reslab.__file__).parent.parent

DESK_CFG = f"""\
mode = explicit
D = 1000000
L = 2
x = 200
B = 200
Z = {200.0 ** 1.5!r}
outdir = out
"""

THREE_PRIME_CFG = """\
mode = explicit
D = 1000000
L = 2.718281828459045
x = 30
B = 30
Z = 150
pminus_lo = 10
pminus_hi = 18
"""

AFE_DS = ("1", "3", "5", "11", "13", "21", "101", "99991", "100003")
DESK_SUITES = sorted(set(cli.SUITES) - {"contour"})
BLOCKS = 64  # digests per CSV, about; one per line for a short CSV


def commands(contour: bool) -> None:
    """Run the desk commands, and the contour suite when contour, in the
    working directory."""
    pathlib.Path("run.cfg").write_text(DESK_CFG, encoding="utf-8")
    pathlib.Path("contour.cfg").write_text(THREE_PRIME_CFG + "outdir = out\n",
                                           encoding="utf-8")
    runs = [("run.cfg", ["ratio"]), ("run.cfg", ["scan-s"]),
            ("run.cfg", ["afe", "--d", *AFE_DS])]
    runs += [("run.cfg", ["verify", suite]) for suite in DESK_SUITES]
    runs += [("contour.cfg", ["verify", "contour"])] if contour else []
    for cfg, args in runs:
        code = cli.main(["--config", cfg, *args])
        if code != cli.EXIT_PASS:
            raise SystemExit(f"reslab {' '.join(args)} exited {code}")


def artifacts(workdir: pathlib.Path, contour: bool = False) -> dict[str, bytes]:
    """The bytes of each artifact the commands write, by file name, run in
    a fresh process in workdir with one BLAS thread and RESLAB_WORKERS=1."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
               OPENBLAS_NUM_THREADS="1", RESLAB_WORKERS="1")
    proc = subprocess.run(
        [sys.executable, "-c", f"import golden; golden.commands({contour})"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(proc.stdout + proc.stderr)
    return {p.name: p.read_bytes() for p in sorted((workdir / "out").iterdir())}


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _leaves(obj, path=""):
    """(dotted path, short digest) for each leaf of a JSON value, in order."""
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}.{i}" if path else str(i))
    else:
        yield path, _short(json.dumps(obj).encode())


def _blocks(data: bytes, size: int) -> list[str]:
    lines = data.splitlines(True)
    return [_short(b"".join(lines[i:i + size]))
            for i in range(0, len(lines), size)]


def entry(name: str, data: bytes) -> dict:
    """The manifest entry of one artifact."""
    out = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    if name.endswith(".json"):
        out["keys"] = dict(_leaves(json.loads(data)))
    else:
        size = max(1, data.count(b"\n") // BLOCKS)
        out["lines_per_block"], out["blocks"] = size, _blocks(data, size)
    return out


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def host() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu}


def mismatch(name: str, data: bytes, manifest: dict) -> str | None:
    """None when data matches the manifest's entry for name; else a message
    naming the first differing JSON key or CSV line (the block of
    lines_per_block lines that holds it)."""
    want = manifest["artifacts"][name]
    got = entry(name, data)
    if got["sha256"] == want["sha256"]:
        return None
    where = f"{got['bytes']} bytes against {want['bytes']}"
    if "keys" in want:
        keys = [*want["keys"], *(k for k in got["keys"] if k not in want["keys"])]
        key = next((k for k in keys if want["keys"].get(k) != got["keys"].get(k)),
                   None)
        if key is not None:
            where = f"first differing key {key!r}"
    else:
        size = want["lines_per_block"]
        blocks = _blocks(data, size)
        pairs = zip(want["blocks"], blocks + [None] * len(want["blocks"]))
        i = next((i for i, (a, b) in enumerate(pairs) if a != b),
                 len(want["blocks"]))
        lines = (f"line {i + 1}" if size == 1
                 else f"lines {i * size + 1}-{(i + 1) * size}")
        first = data.splitlines()[i * size:i * size + 1] or [b""]
        where = f"first difference in {lines}, which now begin {first[0]!r}"
    return (f"{name} differs from the manifest: {where} (manifest made on "
            f"{manifest['host']}, this host {host()})")


def changed(old: dict, new: dict) -> list[str]:
    """The artifacts of manifest new whose sha256 differs from manifest
    old's, or that old lacks, in new's order."""
    return [name for name, item in new["artifacts"].items()
            if old["artifacts"].get(name, {}).get("sha256") != item["sha256"]]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        made = artifacts(pathlib.Path(tmp), contour=True)
    manifest = {"host": host(),
                "artifacts": {name: entry(name, data)
                              for name, data in made.items()}}
    moved = changed(load() if MANIFEST.exists() else {"artifacts": {}}, manifest)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(made)} artifacts")
    for name in moved:
        print(f"changed: {name}")
    print(f"unchanged: {len(made) - len(moved)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
