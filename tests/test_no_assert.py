"""No `assert` statement in the package.  `python -O` strips them, so a
check written as one passes whatever it checks; the package raises its own
exceptions instead (checks.CheckFailed for the cross-checks).  Tests are
exempt.

Every check also decides in reslab.checks: no other module constructs
CheckFailed, and no cli verify suite (a `_suite_*` function) raises, so
each bound has one definition."""

import ast
import pathlib

import pytest

import reslab

PKG = pathlib.Path(reslab.__file__).parent
MODULES = sorted(PKG.glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """The line of each `assert` statement in `source`, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def decision_lines(source: str) -> list[int]:
    """The line of each CheckFailed(...) call in `source`, at any depth,
    and of each `raise` in a top-level `_suite_*` function."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "CheckFailed" in (getattr(node.func, "id", None),
                                   getattr(node.func, "attr", None))}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_suite_"):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, ast.Raise))
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "checks.py"],
                         ids=lambda p: p.name)
def test_checks_decide_in_checks(path):
    assert decision_lines(path.read_text(encoding="utf-8")) == []


def test_detector_flags_decisions():
    source = (
        "def _suite_x(cfg):\n"
        "    if cfg:\n"
        "        raise ValueError('gap')\n"
        "    return checks.rows(cfg)\n"
        "def helper(x):\n"
        "    if x:\n"
        "        raise checks.CheckFailed(\n"
        "            'gap')\n"
        "    err = CheckFailed('gap')\n"
        "    raise ValueError(x)\n"
        "def _suite_y(cfg):\n"
        "    raise CheckFailed('both')\n"
        "try:\n"
        "    pass\n"
        "except checks.CheckFailed:\n"
        "    pass\n")
    assert decision_lines(source) == [3, 7, 9, 12]


def test_detector_flags_assert():
    source = (
        "assert True\n"
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n")
    assert assert_lines(source) == [1, 4, 8]
