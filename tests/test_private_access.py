"""No module of the package, and no demo, reaches into another reslab
module's private names: every `<module>._name` attribute access and every
`from <module> import _name` must stay inside the module that defines the
name.  Tests are exempt.

The same walk checks that each name is reached one way: no package module,
demo, test or benchmark file takes `<module>.<name>` where the name is
another reslab module, or a class or function defined in another one, such
as `charsums.arith` or `charsums.WorkEstimateError`; each is taken from its
home module.  It also guards the entry points of the demos and of the
benchmark in perfbench/: every reslab name they take must exist, and so
must every method and span the benchmark's child process wraps by name, so
deleting a public name they use fails here, before the benchmark runs.

Last, no public function of the package takes the schedule `params` beside
a `table` or a `kernel`, which already carries it as `.params`."""

import ast
import importlib
import inspect
import pathlib

import pytest

import reslab

PKG = pathlib.Path(reslab.__file__).parent
ROOT = PKG.parent.parent
MODULES = {p.stem for p in PKG.glob("*.py")} - {"__init__"}
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FILES = sorted(PKG.glob("*.py")) + DEMOS
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _module_of(node, aliases):
    """The reslab module (or "reslab" for the package) an expression names,
    else None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and _module_of(node.value, aliases) == "reslab":
        return node.attr if node.attr in MODULES else None
    return None


def reslab_refs(path: pathlib.Path) -> list[tuple[str, str]]:
    """Each (module, name) that `path` takes from a reslab module, by
    `from <module> import name` or by the attribute access `<module>.name`;
    the module is "reslab" for the package itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top, _, rest = a.name.partition(".")
                if top == "reslab":
                    if a.asname:
                        aliases[a.asname] = rest or "reslab"
                    else:
                        aliases["reslab"] = "reslab"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and path.parent == PKG:
                source = node.module or "reslab"
            elif node.level == 0 and (node.module or "").split(".")[0] == "reslab":
                source = node.module.partition(".")[2] or "reslab"
            else:
                continue
            for a in node.names:
                if source == "reslab" and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name
                else:
                    refs.append((source, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            mod = _module_of(node.value, aliases)
            if mod is not None:
                refs.append((mod, node.attr))
    return refs


def private_reaches(path: pathlib.Path) -> list[str]:
    """Each private name of another reslab module that `path` touches."""
    own = path.stem if path.parent == PKG else None
    return [f"{mod}.{name}" for mod, name in reslab_refs(path)
            if _private(name) and mod != own]


def _home(obj) -> str | None:
    """The module that defines obj, for a module, a class or a function."""
    if inspect.ismodule(obj):
        return obj.__name__
    if inspect.isclass(obj) or inspect.isroutine(obj):
        return getattr(obj, "__module__", None)
    return None


def foreign_reaches(path: pathlib.Path) -> list[str]:
    """Each `<module>.<name>` that `path` takes where the name is another
    reslab module, or a class or function defined in another one."""
    out = []
    for mod, name in reslab_refs(path):
        if mod == "reslab":
            continue
        home = _home(getattr(importlib.import_module(f"reslab.{mod}"), name,
                             None))
        if (home or "").startswith("reslab.") and home != f"reslab.{mod}":
            out.append(f"{mod}.{name}")
    return out


def params_beside_table() -> list[str]:
    """Each public function or method of a package module that takes a
    `params` parameter together with a `table` or a `kernel`."""
    out = []
    for stem in sorted(MODULES):
        mod = importlib.import_module(f"reslab.{stem}")
        for name, obj in vars(mod).items():
            if _private(name) or _home(obj) != mod.__name__:
                continue
            fns = [(name, obj)]
            if inspect.isclass(obj):
                fns = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                       if inspect.isfunction(f) and not _private(m)]
            for dotted, fn in fns:
                args = inspect.signature(fn).parameters
                if "params" in args and ("table" in args or "kernel" in args):
                    out.append(f"{stem}.{dotted}")
    return out


def _resolve(dotted: str):
    """The object a dotted name under reslab names, such as "cli",
    "charsums.scan_family" or "resonator.CoefficientTable.with_support";
    AttributeError if it is gone."""
    obj = reslab
    for name in dotted.split("."):
        if obj is reslab and name in MODULES:
            obj = importlib.import_module(f"reslab.{name}")
        else:
            obj = getattr(obj, name)
    return obj


def missing_names(path: pathlib.Path) -> list[str]:
    """Each reslab name that `path` takes and the package does not have."""
    out = []
    for mod, name in reslab_refs(path):
        dotted = name if mod == "reslab" else f"{mod}.{name}"
        try:
            _resolve(dotted)
        except AttributeError:
            out.append(dotted)
    return out


def _bench_tables() -> dict:
    """The literal tables of perfbench/child.py: METHODS as written, and
    the keys of EXTRA."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "METHODS":
                out[name] = ast.literal_eval(node.value)
            elif name == "EXTRA":
                out[name] = [ast.literal_eval(k) for k in node.value.keys]
    return out


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_access_across_modules(path):
    assert private_reaches(path) == []


@pytest.mark.parametrize("path", FILES + TESTS + BENCH,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_each_name_reached_one_way(path):
    assert foreign_reaches(path) == []


def test_one_way_detector_flags_reaches(tmp_path):
    demo = tmp_path / "probe.py"
    demo.write_text(
        "import reslab\n"
        "from reslab import charsums, sieve as sv\n"
        "from reslab.sieve import AccuracyError\n"
        "from reslab.resonator import WorkEstimateError\n"
        "charsums.arith.is_squarefree(3)\n"
        "charsums.WorkEstimateError\n"
        "sv.smoothing.psi\n"
        "charsums.tempfile\n"
        "charsums.MAX_X\n"
        "reslab.charsums.scan_family\n")
    assert sorted(foreign_reaches(demo)) == [
        "charsums.WorkEstimateError", "charsums.arith", "sieve.AccuracyError",
        "sieve.smoothing"]


def test_no_params_beside_table():
    assert params_beside_table() == []


def test_detector_flags_reaches(tmp_path):
    demo = tmp_path / "probe.py"
    demo.write_text(
        "import reslab\n"
        "import reslab.sieve as sv\n"
        "from reslab import analytic, charsums as cs\n"
        "from reslab.arith import _helper, kronecker\n"
        "analytic._least_n(0.25, 1.0, 10)\n"
        "cs._chi8d_residues\n"
        "sv._gauss_order\n"
        "reslab.smoothing._mellin_raw\n"
        "reslab.__version__\n"
        "analytic.F_direct\n")
    assert sorted(private_reaches(demo)) == [
        "analytic._least_n", "arith._helper", "charsums._chi8d_residues",
        "sieve._gauss_order", "smoothing._mellin_raw"]


@pytest.mark.parametrize("path", DEMOS + BENCH,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_entry_point_names_exist(path):
    assert missing_names(path) == []


def test_benchmark_wrapped_names_exist():
    tables = _bench_tables()
    assert tables["METHODS"] and tables["EXTRA"]
    for dotted in [".".join(m) for m in tables["METHODS"]] + tables["EXTRA"]:
        assert callable(_resolve(dotted)), dotted


def test_entry_point_check_flags_missing_names(tmp_path):
    demo = tmp_path / "probe.py"
    demo.write_text(
        "import reslab.cli\n"
        "from reslab import charsums, smoothing as sm\n"
        "from reslab.resonator import build_params, gone_name\n"
        "charsums.scan_family\n"
        "sm.canonical_phi\n"
        "reslab.cli.main\n"
        "reslab.__version__\n")
    assert sorted(missing_names(demo)) == [
        "resonator.gone_name", "smoothing.canonical_phi"]
