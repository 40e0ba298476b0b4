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


KEPT_TABLES = {"_k_table", "_k_histogram", "_f_histogram"}
F_INTERNALS = {"_delta_one", "_value_histogram"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_character_sums_and_kept_tables_stay_in_charsums(path):
    # one module runs the transform and writes what the field context keeps:
    # gf3r defines character_sums and declares the tables in __init__,
    # charsums calls the one, fills the others and alone reads delta(1) and
    # the check of f
    tree = ast.parse(path.read_text(), filename=str(path))
    function = {}
    for fn in ast.walk(tree):  # breadth first, so the innermost def is the last one set
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                function[node] = fn.name
    calls, writes, f_reads = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            f_reads += [node.lineno for alias in node.names if alias.name in F_INTERNALS]
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "character_sums":
            calls.append(node.lineno)
        if name in F_INTERNALS:
            f_reads.append(node.lineno)
        if name in KEPT_TABLES and not isinstance(node.ctx, ast.Load):
            writes.append((node.lineno, function.get(node)))
    if path.name == "gf3r.py":
        calls, writes = [], [(line, fn) for line, fn in writes if fn != "__init__"]
    if path.name != "charsums.py":
        assert not calls, "%s reads character_sums at lines %s" % (path.name, calls)
        assert not f_reads, "%s reads delta(1) or f's check at lines %s" % (path.name, f_reads)
        assert not writes, "%s writes a kept table at %s" % (path.name, writes)


WORD_BOUNDS = {31, 63}


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_word_bounds_stay_in_gf3r(path):
    # gf3r._word is the one rule that picks an integer word: 2 ** 31 and
    # 2 ** 63 are written in gf3r alone (_word, and _l1_bound's int64 chunks)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and isinstance(node.left, ast.Constant) and node.left.value == 2
             and isinstance(node.right, ast.Constant) and node.right.value in WORD_BOUNDS]
    if path.name == "gf3r.py":
        assert lines, "gf3r.py writes no word bound: the search finds nothing"
    else:
        assert not lines, "%s writes a word bound at lines %s" % (path.name, lines)
