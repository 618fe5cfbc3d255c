import hashlib
import json
import os
import shutil

import pytest

import numsgps
from numsgps import SemigroupError, cli
from numsgps.cli import main
from numsgps.fixtures import _fixture_dir

from conftest import run_capped_cli, run_python

LARGE_CANONICAL = ["duplicate", "10007,10009", "--ideal", "canonical", "--b", "10007",
                   "--hmax", "3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_plain(capsys):
    code, out, _ = run(capsys, "info", "2,3")
    assert code == 0
    assert "symmetric:           True" in out
    assert "type:                1" in out


def test_info_fixture_json(capsys):
    code, out, _ = run(capsys, "info", "@ex2_10_l4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == 26
    assert data["frobenius"] == 100
    assert data["embedding_dimension"] == 27
    assert data["almost_symmetric"] is True


def test_info_gcd_error_exit_2(capsys):
    code, _, err = run(capsys, "info", "4,6")
    assert code == 2
    assert "gcd" in err


def test_info_unknown_fixture_exit_2(capsys):
    code, _, err = run(capsys, "info", "@missing")
    assert code == 2
    assert "unknown fixture" in err


def test_hilbert_json_round_trip(capsys):
    code, out, _ = run(capsys, "hilbert", "@ex2_13_iii", "--hmax", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [1, 25, 25, 25, 24, 27, 28, 29, 30]
    assert data["stable_from"] == 8
    assert data["decrease_levels"] == [4]


def test_hilbert_layers(capsys):
    code, out, _ = run(capsys, "hilbert", "2,3", "--hmax", "4", "--layers", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == [1, 2, 2, 2, 2]
    assert data["layers"]["C"]["2"] == []


def test_hilbert_not_stabilized_note(capsys):
    code, out, _ = run(capsys, "hilbert", "@ex3_5_h2", "--hmax", "2")
    assert code == 0
    assert "not stabilized" in out


def test_duplicate_canonical_shift(capsys):
    code, out, _ = run(capsys, "duplicate", "@ex2_10_l4", "--ideal", "canonical+101",
                       "--b", "33", "--json", "--emit-generators")
    assert code == 0
    data = json.loads(out)
    assert data["min_gens"][:3] == [64, 66, 76] and data["min_gens"][-1] == 361
    assert data["hilbert"]["values"][:11] == [1, 53, 54, 54, 53, 53, 56, 59, 61, 63, 64]
    assert data["symmetric"] is True


def test_duplicate_predict_flag(capsys):
    code, out, _ = run(capsys, "duplicate", "@ex3_11_small", "--ideal", "canonical",
                       "--b", "49", "--hmax", "5", "--predict", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["multiplicity"] == 38
    assert data["hilbert"]["values"] == [1, 26, 25, 25, 32, 38]
    # prediction deliberately differs: the standard canonical ideal is not proper here
    assert data["predicted_hilbert"]["values"] != data["hilbert"]["values"]


def test_duplicate_custom_ideal_list(capsys):
    code, out, _ = run(capsys, "duplicate", "2,3", "--ideal", "2,3", "--b", "3", "--json")
    assert code == 0
    assert json.loads(out)["min_gens"] == [4, 6, 7, 9]


def test_duplicate_even_b_exit_3(capsys):
    code, _, err = run(capsys, "duplicate", "2,3", "--ideal", "maximal", "--b", "4")
    assert code == 3
    assert "odd" in err


@pytest.mark.parametrize("descriptor", ["canonicalx", "canonical+", "canonical5",
                                        "canonical1_0", "canonical+\u0663"])
def test_duplicate_unparsable_canonical_shift_exit_2(capsys, descriptor):
    code, _, err = run(capsys, "duplicate", "4,5", "--ideal", descriptor, "--b", "5")
    assert code == 2
    assert err == f"error: cannot parse ideal descriptor '{descriptor}'\n"


def test_construct_verify(capsys):
    code, out, _ = run(capsys, "construct", "--ell", "4", "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["all_passed"] is True
    assert data["e"] == 32 and data["n1"] == 33 and data["n2"] == 38


def test_construct_excluded_exit_3(capsys):
    code, _, err = run(capsys, "construct", "--ell", "14")
    assert code == 3
    assert "excluded" in err


def test_construct_l15_generator_count(capsys):
    code, out, _ = run(capsys, "construct", "--ell", "15", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["embedding_dimension"] == 258
    assert "gamma" not in data  # only with --emit-generators


def test_witness_json(capsys):
    code, out, _ = run(capsys, "witness", "--level", "2", "--drop", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["achieved_drop"] == 3
    assert data["final"]["symmetric"] is True
    assert data["seed"] == "ex3_5_h2"


def test_witness_excluded_exit_3(capsys):
    code, _, _ = run(capsys, "witness", "--level", "14", "--drop", "1")
    assert code == 3


def test_check_fixtures(capsys):
    code, out, _ = run(capsys, "check-fixtures")
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(capsys, "check-fixtures", "--json")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_json_generator_argument(capsys):
    code, out, _ = run(capsys, "info", "[2, 3]", "--json")
    assert code == 0
    assert json.loads(out)["min_gens"] == [2, 3]


def test_duplicate_large_canonical_in_bounded_memory():
    # the canonical ideal lists 50070024 members: its JSON is built only under --json
    proc = run_capped_cli(LARGE_CANONICAL)
    assert proc.returncode == 0, proc.stderr
    assert "H = [1, 2, 3, 4]" in proc.stdout.splitlines()


def test_duplicate_large_canonical_through_stabilization():
    # T = <10007, 20018> has about 10^4 Hilbert levels and c near 2 * 10^8; the oracle
    # checks every level with a few Apery vectors of e entries
    proc = run_capped_cli(["duplicate", "10007,10009", "--ideal", "canonical", "--b", "10007"])
    assert proc.returncode == 0, proc.stderr
    assert "symmetric: True" in proc.stdout.splitlines()


def test_duplicate_large_canonical_json_fails_fast():
    proc = run_capped_cli(LARGE_CANONICAL + ["--json"])
    assert proc.returncode == 2, proc.stderr
    assert "error: ideal listing of 50070024 elements exceeds" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_info_at_the_multiplicity_limit_in_bounded_memory():
    # e = 2**24 - 3 passes every size guard, so the round robin must fit under the cap
    proc = run_capped_cli(["info", "16777213,16777215"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert "frobenius:           281474876047367" in lines
    assert "genus:               140737438023684" in lines
    assert "type:                1" in lines


def test_info_at_the_multiplicity_limit_under_704_mib():
    # e = 2**24 - 3: the round robin and PF each peak at 32 bytes a class, S.w's 8 included;
    # the interpreter with numpy takes about 110 MiB of address space
    proc = run_capped_cli(["info", "16777213,16777215"], cap=704 << 20)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "symmetric:           True" in proc.stdout.splitlines()


def test_duplicate_hmax_zero_exit_2(capsys):
    # --hmax 0 is a given h_max, not "through stabilization"
    code, out, err = run(capsys, "duplicate", "4,5", "--ideal", "maximal", "--b", "5", "--hmax", "0")
    assert code == 2 and out == ""
    assert "h_max must be at least 1" in err
    assert run(capsys, "hilbert", "4,5", "--hmax", "0")[0] == 2


def test_witness_past_size_limit_fails_fast():
    # i0 = 20 duplications of the level-4 seed (e = 32) end at multiplicity 2**26
    proc = run_capped_cli(["witness", "--level", "4", "--drop", "1000000"])
    assert proc.returncode == 2, proc.stderr
    assert "error: multiplicity 67108864 exceeds the supported range 2**24" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_construction_families_past_listing_limit_fail_fast():
    # e = 12714112 passes every size bound, but the families hold ell^2 + 2 ell entries
    proc = run_capped_cli(["construct", "--ell", "3564"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: level 3564: the s and r families of 12709224 entries"
                           " exceed the supported size 2**22\n")


@pytest.mark.parametrize("argv", [["construct", "--ell", "99999999999"],
                                  ["witness", "--level", "99999999999", "--drop", "1"]])
def test_construction_past_size_limit_fails_before_its_families(argv):
    # the s and r families hold about ell^2 / 2 entries each; the size check comes first
    proc = run_capped_cli(argv)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the supported range 2**40" in proc.stderr
    assert "Traceback" not in proc.stderr


def _package_errors() -> list[type]:
    """Every SemigroupError subclass that a module of numsgps defines."""
    found, todo = [], [SemigroupError]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("numsgps.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return found


def _raising_info(monkeypatch, error: type) -> None:
    def cmd_info(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_info", cmd_info)


@pytest.mark.parametrize("error", _package_errors(), ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_a_code(monkeypatch, capsys, error):
    # a new error class must subclass one that main maps, or it ends in a traceback
    _raising_info(monkeypatch, error)
    code, _, err = run(capsys, "info", "2,3")
    assert code == 3 if issubclass(error, numsgps.core.DomainError) else code in (2, 4)
    assert err.endswith(": planted\n")


@pytest.mark.parametrize("error", _package_errors(), ids=lambda cls: cls.__name__)
def test_exit_code_is_read_off_the_error_base(monkeypatch, capsys, error):
    # each package error sits under exactly one of the bases main maps
    bases = {3: numsgps.core.DomainError, 2: ValueError, 4: AssertionError}
    under = [code for code, base in bases.items() if issubclass(error, base)]
    assert len(under) == 1, under
    _raising_info(monkeypatch, error)
    assert run(capsys, "info", "2,3")[0] == under[0]


def test_package_error_scan_sees_every_module():
    names = {cls.__name__ for cls in _package_errors()}
    assert {"DomainError", "EvenB", "ExcludedEll", "FixtureIntegrityError", "NotStabilized",
            "SizeLimitError"} <= names
    assert numsgps.core.DomainError in _package_errors()


def test_bare_package_error_escapes_main(monkeypatch):
    class Stray(SemigroupError):
        pass

    _raising_info(monkeypatch, Stray)
    with pytest.raises(Stray, match="planted"):
        main(["info", "2,3"])


def test_construct_verify_exits_4_on_a_failed_claim(monkeypatch, capsys):
    monkeypatch.setattr(numsgps.construction, "pseudo_frobenius", lambda S: (0,))
    code, out, _ = run(capsys, "construct", "--ell", "4", "--verify")
    assert code == 4
    assert "certificate: FAILURES\n" in out
    assert "  [FAIL] pf_max: expected 100, got 0\n" in out
    code, out, _ = run(capsys, "construct", "--ell", "4", "--verify", "--json")
    assert code == 4
    assert json.loads(out)["certificate"]["all_passed"] is False


def test_check_fixtures_exits_4_on_a_failed_claim(tmp_path, monkeypatch, capsys):
    work = tmp_path / "fixtures"
    shutil.copytree(_fixture_dir(), work)
    target = work / "ex3_11_small.json"
    data = json.loads(target.read_text())
    data["expected"]["type"] = 14
    target.write_text(json.dumps(data))
    index = json.loads((work / "index.json").read_text())
    index["fixtures"]["ex3_11_small"]["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (work / "index.json").write_text(json.dumps(index))
    monkeypatch.setenv("SEMIGROUP_FIXTURES", str(work))
    code, out, _ = run(capsys, "check-fixtures")
    assert code == 4
    assert "ex3_11_small: FAIL" in out
    assert "  FAIL type: expected 14, got 13\n" in out


def test_python_m_runs_the_cli(capsys):
    proc = run_python("-m", "numsgps", "info", "4,5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "info", "4,5")[1]


def test_closed_stdout_exits_1_without_a_traceback():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write, as after an early `| head`
    try:
        proc = run_python("-c", "import sys\nfrom numsgps.cli import main\n"
                          "sys.exit(main(['info', '@ex3_5_h2']))\n", stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
