"""Checks on the package source itself."""

import ast
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numsgps

SOURCES = sorted(Path(numsgps.__file__).resolve().parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


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


def _pieces(message: str) -> list[str]:
    """The literal text of a ``_certify`` message's source, split at each f-string field."""
    node = ast.parse(message, mode="eval").body
    if not isinstance(node, ast.JoinedStr):
        return [node.value]
    pieces = [""]
    for part in node.values:
        if isinstance(part, ast.Constant):
            pieces[-1] += part.value
        else:
            pieces.append("")
    return pieces


def _names(text: str, pieces: list[str], others: list[list[str]]) -> bool:
    """Whether a test's ``text`` names the message of ``pieces``, each field read as any text.

    It does if it holds the whole message, or a run of it that starts and
    ends at the message's edges or in literal text of two words or more.  A
    run inside one literal piece counts only if no other message's pieces
    hold it, so a prefix that two messages share names neither.
    """
    def words(part: str) -> bool:
        return len(re.findall(r"\w+", part)) >= 2

    if re.search(".+".join(map(re.escape, pieces)), text, re.S):
        return True
    if any(text in piece for piece in pieces):
        return words(text) and not any(text in piece for other in others for piece in other)
    last = len(pieces) - 1
    for i, j in combinations(range(len(pieces)), 2):
        heads = [pieces[i][k:] for k in range(len(pieces[i]) + 1)
                 if (i, k) == (0, 0) or words(pieces[i][k:])]
        tails = [pieces[j][:k] for k in range(len(pieces[j]) + 1)
                 if (j, k) == (last, len(pieces[j])) or words(pieces[j][:k])]
        run = ".+".join([f"(?:{'|'.join(map(re.escape, heads))})",
                         *map(re.escape, pieces[i + 1:j]),
                         f"(?:{'|'.join(map(re.escape, tails))})"])
        if heads and tails and re.fullmatch(run, text, re.S):
            return True
    return False


def _asserted_texts(tree: ast.Module) -> set[str]:
    """The strings a test compares or passes as ``match=``, with regex escapes undone."""
    nodes = [keyword.value for node in ast.walk(tree) if isinstance(node, ast.Call)
             for keyword in node.keywords if keyword.arg == "match"]
    nodes += [part for node in ast.walk(tree) if isinstance(node, ast.Compare)
              for part in (node.left, *node.comparators)]
    return {re.sub(r"\\(.)", r"\1", node.value) for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _unfired_messages(sources: dict[str, ast.Module], tests: list[ast.Module]) -> list[str]:
    """Each ``_certify`` message that no string a test asserts names, as ``module: source``."""
    messages = {(module, m): _pieces(m) for module, tree in sources.items()
                for m in _certify_messages(tree)}
    texts = set().union(*map(_asserted_texts, tests))
    return sorted(f"{module}: {m}" for (module, m), pieces in messages.items()
                  if not any(_names(text, pieces, [p for key, p in messages.items()
                                                   if key != (module, m)]) for text in texts))


def test_every_certify_message_fires_in_a_test():
    # a certificate that no test makes fire may be dead; prove it redundant and delete it instead
    sources = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    tests = [ast.parse(path.read_text(), filename=str(path)) for path in TESTS]
    assert len(tests) >= 9
    assert _unfired_messages(sources, tests) == []


def test_unfired_message_scan_catches_a_leftover():
    sources = {"a.py": ast.parse(
        "_certify(a, 'rows and oracle disagree')\n_certify(b, f'C_{k} pieces overlap')\n"
        "_certify(c, f'{where}: a sum of two others')\n_certify(d, f'drop {x} short of {y}')\n"
        "_certify(e, 'order-1 stratum differs from G')\n"
        "_certify(f, 'order-1 stratum differs from Ap(2M)')\n_certify(g, f'{where}: no class')\n"
        "_certify(h, 'no test names this')\n"
    )}
    tests = [ast.parse(
        "assert 'rows and oracle disagree' in proc.stderr\nraises(E, match='C_2 pieces overlap')\n"
        "assert 'level 6: a sum' in err\nassert out == '1 drop 2 short of 3\\n'\n"
        "raises(E, match=r'from Ap\\(2M\\)')\nassert 'order-1 stratum differs' in err\n"
        "assert 'construction at level 6' in err\nassert '^level 6: ' in err\n"
        "patch = 'no test names this'\nassert kind == 'names'\n"
    )]
    # a shared prefix names neither order-1 message; a field with a word or less of text
    # around it, a single word and a string that no assertion reads name nothing
    assert _unfired_messages(sources, tests) == ["a.py: 'no test names this'",
                                                 "a.py: 'order-1 stratum differs from G'",
                                                 "a.py: f'{where}: no class'"]


def _size_guards(tree: ast.Module) -> list[tuple[int, str, str]]:
    """(line, exception, message source) of each raise whose message names a supported size."""
    return sorted((node.lineno, ast.unparse(node.exc.func), ast.unparse(node.exc.args[0]))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                  and node.exc.args and "the supported" in ast.unparse(node.exc.args[0]))


def test_size_guards_raise_the_typed_error_with_unique_messages():
    # each size guard names its limit once, and never as a bare ValueError
    guards = [(path.name, *guard) for path in SOURCES
              for guard in _size_guards(ast.parse(path.read_text(), filename=str(path)))]
    assert len(guards) >= 8
    assert [g for g in guards if g[2] != "SizeLimitError"] == []
    messages = [g[3] for g in guards]
    assert sorted(m for m in set(messages) if messages.count(m) > 1) == []


def test_size_guard_scan_catches_a_leftover():
    tree = ast.parse("if a:\n    raise SizeLimitError(f'x {n} exceeds the supported size')\n"
                     "raise ValueError('y exceed the supported range'\n"
                     "                 ' 2**40')\n"
                     "raise ValueError('bad input')\nraise SizeLimitError\n")
    assert _size_guards(tree) == [(2, "SizeLimitError", "f'x {n} exceeds the supported size'"),
                                  (3, "ValueError", "'y exceed the supported range 2**40'")]


def _bare_uniques(tree: ast.Module) -> list[int]:
    """Lines of each ``np.unique`` call that passes no keyword."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("np.unique", "numpy.unique") and not node.keywords)


def test_no_bare_unique_in_package():
    # with no flag, np.unique imports numpy.ma on its first call in a process (numpy 2.4)
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _bare_uniques(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_bare_unique_scan_catches_a_leftover():
    tree = ast.parse("a = np.unique(x)\nb = np.unique(x, return_index=True)[0]\n"
                     "c = numpy.unique(y)\nd = x.unique()\n")
    assert _bare_uniques(tree) == [1, 3]


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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (``_x``, not dunder) a module defines, with their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return found


def _unused_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private module-level names that no module of ``trees`` reads, by name or as an attribute."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}
    return sorted(f"{module}:{line} {name}" for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items() if name not in read)


def test_no_unused_private_names_in_package():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _unused_private_names(trees) == []


def test_unused_private_name_scan_catches_a_leftover():
    trees = {
        "a.py": ast.parse("_LIMIT = 4\n_n: int = 2\n__all__ = []\n"
                          "def _reflect(v):\n    return v\ndef _used(v):\n    return v\n"),
        "b.py": ast.parse("from a import _used, _n\nimport a\nx = _used(a._LIMIT) + _n\n"),
    }
    assert _unused_private_names(trees) == ["a.py:4 _reflect"]


def _catch_all_handlers(tree: ast.Module) -> list[int]:
    """Lines of each bare ``except:`` and each handler that names ``BaseException``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                  and (node.type is None or any(
                      getattr(n, "id", getattr(n, "attr", None)) == "BaseException"
                      for n in ast.walk(node.type))))


def test_no_catch_all_handlers_in_package():
    # such a handler also catches KeyboardInterrupt and SystemExit; name what the call raises
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _catch_all_handlers(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_catch_all_scan_catches_a_leftover():
    tree = ast.parse("try:\n    f()\nexcept ValueError:\n    pass\nexcept:\n    raise\n"
                     "try:\n    g()\nexcept (OSError, BaseException):\n    raise\n"
                     "try:\n    h()\nexcept builtins.BaseException as exc:\n    raise\n"
                     "try:\n    k()\nexcept Exception:\n    pass\n")
    assert _catch_all_handlers(tree) == [5, 9, 13]


def _names_read(tree: ast.Module, function: str) -> set[str]:
    """The names and attributes that the module-level function ``function`` refers to."""
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(node)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _shared_hilbert_steps(tree: ast.Module) -> list[str]:
    """Names that tie the Hilbert oracle to the row walk, or the row walk to the min+ kernel."""
    oracle = _names_read(tree, "hilbert_by_set_construction")
    walk = _names_read(tree, "_levels")
    return sorted([f"hilbert_by_set_construction: {name}"
                   for name in oracle & {"_levels", "_walk", "_from_rows", "_narrow",
                                         "_second_power"}]
                  + [f"_levels: {name}" for name in walk if name.startswith("_min_plus")])


def test_hilbert_routes_stay_independent():
    # the oracle rebuilds every row by its definition; the walk reads W_2 off the
    # generators and gathers over frontiers, never through the dense min+ kernel
    path = next(path for path in SOURCES if path.name == "hilbert.py")
    assert _shared_hilbert_steps(ast.parse(path.read_text(), filename=str(path))) == []


def test_hilbert_route_scan_catches_a_leftover():
    tree = ast.parse("def hilbert_by_set_construction(S, h_max):\n"
                     "    return _walk(S).to(h_max + 1).counts\n"
                     "def _levels(S):\n    yield core._min_plus_steps(S.w, S.min_gens, 1)\n")
    assert _shared_hilbert_steps(tree) == ["_levels: _min_plus_steps",
                                           "hilbert_by_set_construction: _walk"]
    # the oracle may not start from W_2 read off the generators either
    tree = ast.parse("def hilbert_by_set_construction(S, h_max):\n"
                     "    rows = [S.w, hilbert._second_power(S)]\n"
                     "def _levels(S):\n    yield _second_power(S)\n")
    assert _shared_hilbert_steps(tree) == ["hilbert_by_set_construction: _second_power"]


def _dtype_name(node: ast.AST):
    """The name an ``np.x`` attribute, a bare name, an import or a string constant spells."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    return node.value if isinstance(node, ast.Constant) else None


def _narrow_dtypes_named(trees: dict[str, ast.Module]) -> list[str]:
    """Each int8, int16 or int32 named outside ``core._narrow``, which alone picks narrow dtypes."""
    found = []
    for module, tree in trees.items():
        picker = set()
        if module == "core.py":
            narrow = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_narrow")
            picker = {id(node) for node in ast.walk(narrow)}
        found += [f"{module}:{node.lineno} {_dtype_name(node)}" for node in ast.walk(tree)
                  if _dtype_name(node) in ("int8", "int16", "int32") and id(node) not in picker]
    return sorted(found)


def test_narrow_dtypes_are_picked_in_one_place():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _narrow_dtypes_named(trees) == []


def test_narrow_dtype_scan_catches_a_leftover():
    trees = {
        "core.py": ast.parse("def _narrow(lo, hi):\n    return np.int16 if hi < 9 else np.int32\n"
                             "def _rows(v):\n    return v.astype('int32')\n"),
        "hilbert.py": ast.parse("x = np.zeros(3, dtype=np.int8)\ny = np.int64\n"
                                "from numpy import int16\n"),
    }
    assert _narrow_dtypes_named(trees) == ["core.py:4 int32", "hilbert.py:1 int8",
                                           "hilbert.py:3 int16"]


def _iinfo_calls_in_function_bodies(trees: dict[str, ast.Module]) -> list[str]:
    """Each ``iinfo`` call in the body of a function or lambda.

    np.iinfo builds an object on every call, about 0.4 us, so dtype limits are
    spelled once, at import time or as literals; a default argument is
    evaluated once and does not count.
    """
    found = set()
    for module, tree in trees.items():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = function.body if isinstance(function.body, list) else [function.body]
                found |= {f"{module}:{node.lineno}" for part in body for node in ast.walk(part)
                          if isinstance(node, ast.Call) and _dtype_name(node.func) == "iinfo"}
    return sorted(found)


def test_iinfo_is_never_called_inside_a_function():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _iinfo_calls_in_function_bodies(trees) == []


def test_iinfo_scan_catches_a_leftover():
    trees = {
        "core.py": ast.parse("TOP = np.iinfo(np.int64).max\n"
                             "def _narrow(lo, hi, top=np.iinfo(np.int64).max):\n"
                             "    def inner():\n        return np.iinfo(dt).max\n"
                             "    return hi < top\n"),
        "hilbert.py": ast.parse("from numpy import iinfo\nclass W:\n    def f(self):\n"
                                "        return iinfo(self.dt)\nlimit = lambda dt: iinfo(dt).min\n"),
    }
    assert _iinfo_calls_in_function_bodies(trees) == ["core.py:4", "hilbert.py:4", "hilbert.py:5"]


def test_code_line_counter_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module docstring,\nover two lines."""\n'
        "import os  # a trailing comment leaves the line code\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return os.path.join(x,\n"
        '                        "a",\n'
        '                        "b")\n'
    )
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(tool), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [["mod.py", "5"], ["total", "5"]]
