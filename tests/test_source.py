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


def _certify_messages(tree: ast.Module) -> list[str]:
    """The source of the message argument of every ``_certify`` call."""
    return [ast.unparse(node.args[1]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_certify"]


def test_certify_messages_are_unique_literals():
    # a failed cross-check names one claim and one route
    messages = [m for path in SOURCES
                for m in _certify_messages(ast.parse(path.read_text(), filename=str(path)))]
    assert len(messages) >= 19
    assert all(m[0] in "'\"" or m[:2] in ("f'", 'f"') for m in messages), messages
    assert sorted(m for m in set(messages) if messages.count(m) > 1) == []


def test_certify_message_scan_sees_fstrings():
    tree = ast.parse("_certify(a, 'x')\nif b:\n    _certify(b, f'y {k}')\n_certify(c, msg)\n")
    assert sorted(_certify_messages(tree)) == ["'x'", "f'y {k}'", "msg"]


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Names a module imports and never reads; names listed in ``__all__`` count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_package():
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_unused_import_scan_catches_a_leftover():
    tree = ast.parse("from typing import Callable, Iterable\nimport numpy as np\n"
                     "def f(x: Iterable) -> None:\n    np.sort(x)\n")
    assert _unused_imports(tree) == [(1, "Callable")]
