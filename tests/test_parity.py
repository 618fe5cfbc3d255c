"""The parity harness in tools/parity.py, on a tiny corpus."""

import importlib.util
from pathlib import Path

import numsgps

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

TINY = {"count": 4, "ell_max": 5}


def test_two_runs_on_the_working_tree_agree(capsys):
    argv = ["--tree", str(ROOT), "--tree", str(ROOT), "--count", "4", "--ell-max", "5"]
    assert parity.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = [line for line in lines if line.startswith(("function", "command"))]
    assert len(digests) > 90 and all(" equal " in line for line in digests)
    assert lines[-1] == f"{len(digests)} of {len(digests)} digests equal"


def test_a_changed_output_is_named(monkeypatch):
    before = parity.collect(**TINY)
    pf = numsgps.pseudo_frobenius
    monkeypatch.setattr(numsgps, "pseudo_frobenius", lambda S: pf(S) + (0,))
    lines, differ = parity.compare(before, parity.collect(**TINY))
    assert differ == ["pseudo_frobenius"]
    at = next(i for i, line in enumerate(lines) if " DIFFER " in line)
    assert lines[at].endswith("  pseudo_frobenius")
    assert lines[at + 1].startswith("    first difference at [1]: '[-1]' / '[-1, 0]'")


def test_the_patched_checker_command_exits_4():
    commands = dict(parity._special_commands(numsgps))
    out = commands["construct --ell 16 --verify (frontier checker patched to zeros)"]()
    assert out.startswith("exit 4\n")
    assert out.endswith("Apery-row and frontier-checked Hilbert values disagree\n")
