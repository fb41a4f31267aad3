"""No `assert` statement in the package.  `python -O` strips them, so a
check written as one passes whatever it checks; the package raises its own
exceptions instead (checks.CheckFailed for the cross-checks).  Tests are
exempt."""

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
