"""Compare the public outputs of numsgps source trees.

Usage::

    python tools/parity.py --tree A [--tree B] [--count N] [--ell-max L]

Each tree's ``src`` is imported in a fresh interpreter, which runs one
corpus, seeded alike for every tree, through every public query and a fixed list of command lines.
The corpus is ``--count`` random semigroups (multiplicity 1 to 40, and 1, 2,
150 or 200 for every tenth), <1>, every stored fixture, ``construct_asd`` and
``verify_construction`` for levels up to ``--ell-max`` (default 19), small
symmetric witnesses, and fixed invalid inputs.  Each result is digested as
the JSON of its ``to_json()``, or its ``repr``, and a raised error as its
type and message; the digest of a query is the sha256 of all its results.
The command lines run in-process through ``numsgps.cli.main``, apart from
``python -m numsgps`` and a run whose stdout is a pipe with no reader, and
each is digested as its exit code, stdout and stderr, with the tree's path
written as ``<tree>``.

With one tree it prints one digest per query and per command.  With two it
prints ``equal`` or ``DIFFER`` for each, and for a difference the first
input whose outputs differ; it exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

_EXCERPT = 160  # characters of each side shown at a first difference
_KEPT = 4000  # characters of each output kept for that excerpt; the digest reads them all
_SEED = 1


# ---------------------------------------------------------------------------
# the corpus, run inside the child interpreter
# ---------------------------------------------------------------------------

def _text(value) -> str:
    """A tree-independent rendering of a result: its to_json, or its repr."""
    if hasattr(value, "to_json"):
        return type(value).__name__ + json.dumps(value.to_json())
    if hasattr(value, "dtype"):
        return f"array[{value.dtype}]{value.tolist()}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k!r}: {_text(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _outcome(call) -> str:
    try:
        return _text(call())
    except Exception as exc:  # an error is an output too
        return f"!{type(exc).__name__}: {exc}"


def _item(label: str, text: str) -> list[str]:
    """[label, sha256 of the whole text, the text's head]: what the driver compares."""
    return [label, hashlib.sha256(text.encode()).hexdigest(), text[:_KEPT]]


def _random_generators(rng: random.Random, count: int) -> list[list[int]]:
    corpus = []
    for i in range(count):
        e = rng.choice((1, 2, 150, 200)) if i % 10 == 9 else rng.randint(1, 40)
        extras = rng.sample(range(e + 1, 4 * e + 2), k=min(rng.randint(1, 5), 3 * e + 1))
        if math.gcd(e, *extras) != 1:
            extras.append(e + 1)
        corpus.append([e, *extras])
    return corpus


def _semigroup_queries(numsgps) -> dict:
    """Query name -> f(S), run on every semigroup of the corpus."""
    ns = numsgps

    def duplication(S):
        E = ns.standard_canonical_ideal(S).shift(S.frobenius + 1)
        return ns.numerical_duplication(S, E, ns.smallest_odd_element(S))

    def elements(S):
        return [S.contains(x) for x in (-1, 0, S.frobenius, S.conductor)], S.elements_up_to(60)

    def predicted(S):
        H = ns.hilbert_through_stabilization(S, 4)
        return ns.predicted_duplication_hilbert(H, ns.semigroup_type(S), H.h_max + 3)

    def element_orders(S):
        probes = [0, S.frobenius, S.conductor, 3 * S.multiplicity + 1, 2**62, 2**70 + 1]
        return [_outcome(lambda s=s: ns.element_order(S, s)) for s in probes + S.w.tolist()]

    return {
        "from_generators": lambda S: (S, S.w),
        "gaps": lambda S: S.gaps,
        "members": lambda S: elements(S),
        "apery_table": lambda S: ns.apery_table(S),
        "hilbert_function": lambda S: ns.hilbert_function(S, 8),
        "hilbert_through_stabilization": lambda S: ns.hilbert_through_stabilization(S),
        "decrease_levels": lambda S: ns.decrease_levels(ns.hilbert_through_stabilization(S)),
        "hilbert_by_set_construction": lambda S: ns.hilbert_by_set_construction(S, 5),
        "layer_sets": lambda S: ns.layer_sets(S, 4),
        "order_table": lambda S: ns.order_table(S, S.conductor + 3 * S.multiplicity),
        "element_order": lambda S: element_orders(S),
        "pseudo_frobenius": lambda S: ns.pseudo_frobenius(S),
        "semigroup_type": lambda S: ns.semigroup_type(S),
        "is_symmetric": lambda S: ns.is_symmetric(S),
        "is_almost_symmetric": lambda S: (ns.is_almost_symmetric(S, "definition"),
                                          ns.is_almost_symmetric(S, "nari")),
        "nari_partition": lambda S: ns.nari_partition(S),
        "standard_canonical_ideal": lambda S: ns.standard_canonical_ideal(S),
        "maximal_ideal": lambda S: ns.maximal_ideal(S),
        "semigroup_as_ideal": lambda S: ns.semigroup_as_ideal(S),
        "ideal_generated_by": lambda S: ns.ideal_generated_by(S, [-1, 2, S.frobenius]),
        "ideal_sum": lambda S: ns.ideal_sum(ns.maximal_ideal(S), ns.standard_canonical_ideal(S)),
        "ideal_queries": lambda S: [
            (E.minimal_generators(), E.is_proper(), E.min_element, E.threshold, repr(E))
            for E in (ns.maximal_ideal(S), ns.standard_canonical_ideal(S).shift(-3))],
        "is_canonical_ideal": lambda S: [
            ns.is_canonical_ideal(E) for E in (ns.standard_canonical_ideal(S).shift(5),
                                               ns.maximal_ideal(S))],
        "smallest_odd_element": lambda S: ns.smallest_odd_element(S),
        "numerical_duplication": lambda S: duplication(S),
        "predicted_duplication_hilbert": lambda S: predicted(S),
        "duplication_chain": lambda S: (ns.duplication_chain(S, 2)
                                        if S.multiplicity <= 40 else None),
    }


def _standalone_queries(numsgps, ell_max: int) -> dict:
    """Query name -> [(label, call)] for the inputs that are not semigroups of the corpus."""
    ns, S = numsgps, numsgps.NumericalSemigroup.from_generators([4, 7])
    levels = range(1, ell_max + 1)
    witnesses = [(2, 1), (2, 3), (3, 2), (4, 1), (4, 3), (6, 1), (1, 1), (14, 1), (35, 2), (4, 0)]
    return {
        "construct_asd": [(f"ell={ell}", lambda ell=ell: ns.construct_asd(ell)) for ell in levels],
        "verify_construction": [(f"ell={ell}", lambda ell=ell: ns.verify_construction(ell))
                                for ell in levels],
        "gcd_validity": [(f"ell={ell}", lambda ell=ell: ns.gcd_validity(ell)) for ell in range(60)],
        "is_excluded_level": [(f"ell={ell}", lambda ell=ell: ns.is_excluded_level(ell))
                              for ell in range(60)],
        "gorenstein_witness": [(f"{lv},{d}", lambda lv=lv, d=d: ns.gorenstein_witness(lv, d))
                               for lv, d in witnesses],
        "parse_generators": [(text, lambda text=text: ns.parse_generators(text)) for text in
                             ("4,6,7", "[4,6,7]", " 4, 5 ,", "[true,3]", "4,x", "[4.0]", "", "{}")],
        "from_generators_invalid": [(repr(g), lambda g=g: ns.NumericalSemigroup.from_generators(g))
                                    for g in ([], [0, 3], [-2, 3], [4, 6], [2, 2**40 + 1],
                                              [4.5, 7], [4.0, 7], [2**24 + 1, 2**24 + 2])],
        "RelativeIdeal": [(repr(args), lambda args=args: ns.RelativeIdeal(S, *args))
                          for args in (([0, 4], 7), ([0], 4), ([0, 4, 5], 7), ([0.5, 4], 7),
                                       ([2**70], 5), ([-3, 1, 4], 8))],
        "bool_inputs": [
            ("from_generators([True, 3])",
             lambda: ns.NumericalSemigroup.from_generators([True, 3])),
            ("ideal_generated_by(<4,7>, [True])", lambda: ns.ideal_generated_by(S, [True])),
            ("RelativeIdeal(<4,7>, [False, 4], 7)", lambda: ns.RelativeIdeal(S, [False, 4], 7)),
        ],
        "fixtures": [(name, lambda name=name: (ns.get_fixture(name), ns.fixture_semigroup(name)))
                     for name in sorted(ns.load_registry())] + [
            ("unknown", lambda: ns.get_fixture("nope"))],
        "check_fixture": [(name, lambda name=name: ns.check_fixture(ns.get_fixture(name)))
                          for name in sorted(ns.load_registry())],
        "check_all_fixtures": [("all", ns.check_all_fixtures)],
    }


def _commands() -> list[list[str]]:
    """The fixed command lines: every --help, each subcommand with and without --json, exits 2-4."""
    helps = [["--help"]] + [[cmd, "--help"] for cmd in (
        "info", "hilbert", "duplicate", "construct", "witness", "check-fixtures")]
    runs = [
        ["info", "4,5"], ["info", "@ex2_10_l4"], ["info", "[4,6,7]"],
        ["hilbert", "4,6,7", "--hmax", "5", "--layers"],
        ["hilbert", "@ex3_11_small", "--hmax", "7"], ["hilbert", "@ex3_5_h2", "--hmax", "2"],
        ["duplicate", "@ex2_10_l4", "--ideal", "canonical+101", "--b", "33", "--predict"],
        ["duplicate", "@ex2_10_l4", "--ideal", "maximal", "--b", "33", "--hmax", "3"],
        ["duplicate", "4,5", "--ideal", "0,4", "--b", "5", "--emit-generators"],
        ["construct", "--ell", "10", "--verify"],
        ["construct", "--ell", "4", "--emit-generators"],
        ["witness", "--level", "2", "--drop", "3"],
        ["witness", "--level", "4", "--drop", "1", "--emit-generators"],
        ["check-fixtures"],
        # exit 2
        ["info", "4,6"], ["info", "[true,3]"], ["info", "@nope"], ["info", "4,x"],
        ["hilbert", "4,5", "--hmax", "0"],
        ["duplicate", "@ex2_10_l4", "--ideal", "canonicalx", "--b", "33"],
        ["duplicate", "@ex2_10_l4", "--ideal", "canonical5", "--b", "33"],
        # exit 3
        ["duplicate", "4,5", "--ideal", "canonical", "--b", "4"],
        ["construct", "--ell", "3"], ["construct", "--ell", "14"],
        ["witness", "--level", "14", "--drop", "1"],
    ]
    return helps + runs + [argv + ["--json"] for argv in runs]


def _run_cli(argv: list[str]) -> str:
    from numsgps.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return f"exit {code}\n{out.getvalue()}\n--- stderr\n{err.getvalue()}"


def _special_commands(numsgps) -> list[tuple[str, object]]:
    """Commands that need more than a call of main: a patch, an environment or a process."""
    def patched(argv, module, name, value):
        if not hasattr(module, name):  # a tree from before that route existed
            return f"no {module.__name__}.{name} to patch"
        original = getattr(module, name)
        setattr(module, name, value)
        try:
            return _run_cli(argv)
        finally:
            setattr(module, name, original)

    def empty_fixture_dir():
        with tempfile.TemporaryDirectory() as empty:
            os.environ[numsgps.fixtures.ENV_VAR] = empty
            try:
                return _run_cli(["check-fixtures"]).replace(empty, "<dir>")
            finally:
                del os.environ[numsgps.fixtures.ENV_VAR]

    def process(argv, closed_stdout=False):
        env = {**os.environ, "PYTHONPATH": str(Path(numsgps.__file__).resolve().parents[1])}
        if not closed_stdout:
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
            return f"exit {proc.returncode}\n{proc.stdout}\n--- stderr\n{proc.stderr}"
        read, write = os.pipe()
        os.close(read)  # no reader: the first write fails
        try:
            proc = subprocess.run([sys.executable, *argv], stdout=write, stderr=subprocess.PIPE,
                                  text=True, env=env)
        finally:
            os.close(write)
        return f"exit {proc.returncode}\n--- stderr\n{proc.stderr}"

    oracle = numsgps.hilbert
    return [
        ("hilbert 4,6,7 (oracle patched to zeros)",
         lambda: patched(["hilbert", "4,6,7"], oracle, "hilbert_by_set_construction",
                         lambda S, h_max: [0] * (h_max + 1))),
        # l = 16 takes the frontier checker's route, where the patch above would not be read
        ("construct --ell 16 --verify (frontier checker patched to zeros)",
         lambda: patched(["construct", "--ell", "16", "--verify"], oracle, "_frontier_checked",
                         lambda S, h_max: [0] * (h_max + 1))),
        ("check-fixtures (SEMIGROUP_FIXTURES empty)", empty_fixture_dir),
        ("python -m numsgps info 4,5", lambda: process(["-m", "numsgps", "info", "4,5"])),
        ("info @ex3_5_h2 > pipe with no reader",
         lambda: process(["-c", "import sys; from numsgps.cli import main; sys.exit(main())",
                          "info", "@ex3_5_h2"], closed_stdout=True)),
    ]


def collect(count: int = 400, ell_max: int = 19) -> dict:
    """{"functions": {name: items}, "commands": {line: items}}, run in this interpreter.

    An item is :func:`_item` of one input.  Every public query is looked up
    on the ``numsgps`` package when it is called, so a patched package
    attribute shows in its own query alone.
    """
    import numsgps

    generators = [[1]] + _random_generators(random.Random(_SEED), count)
    generators += [list(fx.generators) for _, fx in sorted(numsgps.load_registry().items())]
    semigroups = [(str(g), numsgps.NumericalSemigroup.from_generators(g)) for g in generators]
    semigroups += [(f"construct_asd({ell})", numsgps.construct_asd(ell).semigroup)
                   for ell in range(4, ell_max + 1) if not numsgps.is_excluded_level(ell)]
    functions = {name: [_item(label, _outcome(lambda: query(S))) for label, S in semigroups]
                 for name, query in _semigroup_queries(numsgps).items()}
    for name, calls in _standalone_queries(numsgps, ell_max).items():
        functions[name] = [_item(label, _outcome(call)) for label, call in calls]
    tree = str(Path(numsgps.__file__).resolve().parents[2])
    runs = [(" ".join(argv), lambda argv=argv: _run_cli(argv)) for argv in _commands()]
    commands = {line: [_item(line, run().replace(tree, "<tree>"))]
                for line, run in runs + _special_commands(numsgps)}
    return {"functions": functions, "commands": commands}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def _digest(items: list) -> str:
    return hashlib.sha256("".join(f"{label}\0{sha}\0" for label, sha, _ in items)
                          .encode()).hexdigest()[:16]


def _run_tree(tree: Path, args) -> dict:
    src = tree / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80", "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", "--count", str(args.count),
         "--ell-max", str(args.ell_max)],
        env=env, capture_output=True, text=True, cwd=tree,
    )
    if proc.returncode != 0:
        raise SystemExit(f"parity: the run on {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    imported = Path(result.pop("imported")).resolve()
    if src.resolve() not in imported.parents:
        raise SystemExit(f"parity: {tree} imported numsgps from {imported}")
    return result


def _first_difference(a: list, b: list) -> str:
    if len(a) != len(b):
        return f"{len(a)} items against {len(b)}"
    for (label, sha_a, x), (_, sha_b, y) in zip(a, b):
        if sha_a != sha_b:
            at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            lo = max(0, at - _EXCERPT // 2)
            return f"at {label}: {x[lo:lo + _EXCERPT]!r} / {y[lo:lo + _EXCERPT]!r}"
    return "in the labels"


def compare(a: dict, b: dict | None = None) -> tuple[list[str], list[str]]:
    """The report lines, and the names of the queries and commands whose digests differ."""
    lines, differ = [], []
    for kind, group in (("function", "functions"), ("command", "commands")):
        for name in sorted(a[group].keys() | (b or {}).get(group, {}).keys()):
            items_a = a[group].get(name, [])
            if b is None:
                lines.append(f"{kind:<8} {len(items_a):>5} {_digest(items_a)}  {name}")
                continue
            items_b = b[group].get(name, [])
            da, db = _digest(items_a), _digest(items_b)
            if da == db:
                lines.append(f"{kind:<8} {len(items_a):>5} equal  {da}  {name}")
            else:
                differ.append(name)
                lines.append(f"{kind:<8} {len(items_a):>5} DIFFER {da} / {db}  {name}")
                lines.append(f"    first difference {_first_difference(items_a, items_b)}")
    return lines, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", type=Path, default=[],
                        help="a source tree holding src/numsgps; once or twice")
    parser.add_argument("--count", type=int, default=400, help="random semigroups")
    parser.add_argument("--ell-max", type=int, default=19, help="largest construction level")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        import numsgps

        result = collect(args.count, args.ell_max)
        print(json.dumps({"imported": numsgps.__file__, **result}))
        return 0
    if not 1 <= len(args.tree) <= 2:
        parser.error("give --tree once or twice")
    runs = [_run_tree(tree, args) for tree in args.tree]
    lines, differ = compare(*runs)
    print("\n".join(lines))
    if len(runs) == 2:
        total = sum(len(group) for group in runs[0].values())
        print(f"{total - len(differ)} of {total} digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
