"""Checks on the package source itself."""

import ast
from pathlib import Path

import numsgps

SOURCES = sorted(Path(numsgps.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements; cross-checks raise through core._certify
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []
