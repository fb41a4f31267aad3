"""No module of the package, and no demo, reaches into another reslab
module's private names: every `<module>._name` attribute access and every
`from <module> import _name` must stay inside the module that defines the
name.  Tests are exempt."""

import ast
import pathlib

import pytest

import reslab

PKG = pathlib.Path(reslab.__file__).parent
ROOT = PKG.parent.parent
MODULES = {p.stem for p in PKG.glob("*.py")} - {"__init__"}
FILES = sorted(PKG.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


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


def private_reaches(path: pathlib.Path) -> list[str]:
    """Each private name of another reslab module that `path` touches."""
    own = path.stem if path.parent == PKG else None
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    aliases = {}
    found = []
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
                elif _private(a.name) and source != own:
                    found.append(f"{source}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            mod = _module_of(node.value, aliases)
            if mod is not None and mod != own:
                found.append(f"{mod}.{node.attr}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_access_across_modules(path):
    assert private_reaches(path) == []


def test_detector_flags_reaches(tmp_path):
    demo = tmp_path / "probe.py"
    demo.write_text(
        "import reslab\n"
        "import reslab.sieve as sv\n"
        "from reslab import analytic, charsums as cs\n"
        "from reslab.arith import _helper, kronecker\n"
        "analytic._g_tail_pmax(0.25, 1e-7)\n"
        "cs._hurwitz_half\n"
        "sv._gauss_order\n"
        "reslab.smoothing._mellin_raw\n"
        "reslab.__version__\n"
        "analytic.F_direct\n")
    assert sorted(private_reaches(demo)) == [
        "analytic._g_tail_pmax", "arith._helper", "charsums._hurwitz_half",
        "sieve._gauss_order", "smoothing._mellin_raw"]
