"""Checks on the package source itself."""

import ast
from pathlib import Path

import algcert

SOURCES = sorted(Path(algcert.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; a check that guards soundness must
    # raise a typed error instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
