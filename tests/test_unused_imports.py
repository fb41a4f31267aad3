"""Every module-level import in the package is used.  The package has no
lint step of its own, so this AST walk is it: a name bound by an import at
module level (in a top-level `if` or `try` too) must be read somewhere in
the module.  `__init__.py` is exempt: its imports are the package's public
names."""

import ast
import pathlib

import pytest

import reslab

PKG = pathlib.Path(reslab.__file__).parent
MODULES = sorted(p for p in PKG.glob("*.py") if p.name != "__init__.py")


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
