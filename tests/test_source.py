"""Checks on the package source itself."""

import ast
import pathlib

import pytest

SRC = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "kloostercodes").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statement(path):
    # `python -O` strips assert statements, so an exact check written as one
    # would let an inexact division truncate silently; each raises instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s has assert statements at lines %s" % (path.name, lines)
