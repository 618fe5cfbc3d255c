import sys

import numpy as np
import pytest

import numsgps.cli
import numsgps.construction
import numsgps.core
import numsgps.hilbert
from numsgps import (
    EllTooSmall,
    ExcludedEll,
    GcdError,
    NumericalSemigroup,
    construct_asd,
    gcd_validity,
    hilbert_through_stabilization,
    is_excluded_level,
    pseudo_frobenius,
    verify_construction,
)

from conftest import _exit_under_python_O

EXPECTED_L4 = (32, 33, 38, 69, 72, 73, 74, 75, 77, 78, 79, 80, 81, 82, 83, 84,
               85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95)
EXPECTED_L5 = (44, 53, 63, 117, 125, 127, 134, 135, 136, 137, 142, 143, 144, 145,
               146, 147, 152, 153, 154, 155, 156, 157, 162, 163, 164, 165, 166,
               167, 172, 173, 174, 175, 182, 183, 184, 192, 193, 202)


def test_level_4_parameters_and_generators():
    d = construct_asd(4)
    assert (d.e, d.n1, d.n2, d.t1, d.t2) == (32, 33, 38, 69, 95)
    assert d.gamma == EXPECTED_L4
    assert d.semigroup.min_gens == EXPECTED_L4
    assert NumericalSemigroup.from_generators(d.gamma).min_gens == EXPECTED_L4


def test_level_5_parameters_and_generators():
    d = construct_asd(5)
    assert (d.e, d.n1, d.n2) == (44, 53, 63)
    assert d.gamma == EXPECTED_L5


def test_families_past_listing_limit_rejected_before_they_are_built(monkeypatch):
    # ell^2 + 2 ell entries in all: 2047 gives 2**22 - 1, 2048 gives 4198400
    with pytest.raises(ValueError, match="families of 4198400 entries exceed the supported size"):
        construct_asd(2048)
    monkeypatch.setattr(numsgps.construction, "LISTING_LIMIT", 24)
    assert len(construct_asd(4).s_family) + len(construct_asd(4).r_family) == 24
    with pytest.raises(ValueError, match="level 5: the s and r families of 35 entries"):
        construct_asd(5)


def test_family_sizes_and_relation():
    for ell in (4, 5, 8, 11):
        d = construct_asd(ell)
        assert len(d.s_family) == (ell * ell + 3 * ell) // 2
        assert len(d.r_family) == (ell * ell + ell) // 2
        assert len(d.gamma) == d.e - ell - 1
        assert ell * d.n1 + (ell - 1) * d.e == (ell + 2) * d.n2
        assert d.t2 == ell * d.e - d.n1
        assert d.t2 in d.semigroup.min_gens
        assert d.offset1 == d.n1 - d.e and d.offset2 == d.n2 - d.e


def test_top_combination_facts():
    # l*n1 - n2 coincides with the (0, l+1) family member, and complementing
    # an (0,q) member against l*n1 + e stays inside the s-family
    for ell in (4, 5, 6, 7):
        d = construct_asd(ell)
        assert ell * d.n1 - d.n2 == d.s_family[(0, ell + 1)]
        s_values = set(d.s_family.values())
        for q in range(2, ell + 1):
            assert ell * d.n1 + d.e - d.s_family[(0, q)] in s_values


def test_residue_family_extremes():
    for ell in (4, 5, 6):
        d = construct_asd(ell)
        family = ({k * d.n1 for k in range(1, ell + 1)} | {d.n2, d.t1, d.t2}
                  | set(d.s_family.values()) | set(d.r_family.values()))
        ordered = sorted(family)
        assert d.e < ordered[0] == d.n1
        assert ordered[1] == d.n2
        assert ordered[-1] == ell * d.n1
        assert len({x % d.e for x in family}) == d.e - 1


def test_excluded_levels():
    assert is_excluded_level(14) and is_excluded_level(36) and is_excluded_level(58)
    assert is_excluded_level(35) and is_excluded_level(81) and is_excluded_level(127)
    assert not any(is_excluded_level(ell) for ell in range(4, 14))
    with pytest.raises(ExcludedEll):
        construct_asd(36)
    with pytest.raises(ExcludedEll):
        construct_asd(14)
    with pytest.raises(ExcludedEll):
        construct_asd(35)
    with pytest.raises(EllTooSmall):
        construct_asd(3)


def test_excluded_level_gens_would_fail_gcd():
    # at an excluded level even the raw triple shares a factor
    valid, g = gcd_validity(35)
    assert not valid and g == 23
    e, n1, n2 = 35 * 35 + 3 * 35 + 4, None, None
    with pytest.raises(GcdError):
        NumericalSemigroup.from_generators([1334, 1403, 2553])


def test_gcd_validity_table():
    assert gcd_validity(35) == (False, 23)
    assert gcd_validity(81) == (False, 23)
    assert gcd_validity(14) == (False, 11)
    assert gcd_validity(36) == (False, 11)
    for ell in range(4, 101):
        valid, g = gcd_validity(ell)
        assert valid == (not is_excluded_level(ell))
        assert (g == 1) == valid
    with pytest.raises(EllTooSmall):
        gcd_validity(2)


def test_verify_level_4_and_5():
    cert4 = verify_construction(4)
    assert cert4.all_passed, cert4.failures()
    by_name = {c.name: c for c in cert4.claims}
    assert by_name["embedding_dimension"].actual == 27
    assert by_name["type"].actual == 26
    assert by_name["frobenius"].actual == 100

    cert5 = verify_construction(5)
    assert cert5.all_passed
    assert {c.name: c.actual for c in cert5.claims}["type"] == 37


def test_verify_sweep_small():
    for ell in (6, 7):
        assert verify_construction(ell).all_passed


def test_certificate_json_shape():
    cert = verify_construction(4)
    data = cert.to_json()
    assert data["all_passed"] is True
    assert all({"name", "expected", "actual", "pass"} <= set(c) for c in data["claims"])


def test_apery_build_matches_round_robin():
    # the round robin stays the reference for the closed-form Apery build
    for ell in range(4, 41):
        if is_excluded_level(ell):
            continue
        d = construct_asd(ell)
        reference = NumericalSemigroup.from_generators(d.gamma)
        assert d.semigroup.min_gens == reference.min_gens, ell
        assert np.array_equal(d.semigroup.w, reference.w), ell


def test_construction_builds_no_semigroup_from_generators(monkeypatch):
    build = NumericalSemigroup.from_generators.__func__

    def guarded(cls, gens):
        if sys._getframe(1).f_globals["__name__"] == "numsgps.construction":
            raise RuntimeError("construction rebuilt from generators")
        return build(cls, gens)

    monkeypatch.setattr(NumericalSemigroup, "from_generators", classmethod(guarded))
    assert construct_asd(6).semigroup.embedding_dimension == 6 * 6 + 2 * 6 + 3


# level 6: e = 58, and 6 * n1 is the largest family member
_LIFT_TOP = (
    "family = numsgps.construction._apery_family\n"
    "def lifted(gamma, ell, n1, n2):\n"
    "    return tuple(x + 58 if x == ell * n1 else x for x in family(gamma, ell, n1, n2))\n"
    "numsgps.construction._apery_family = lifted"
)


def test_wrong_family_raises(monkeypatch):
    family = numsgps.construction._apery_family
    monkeypatch.setattr(
        numsgps.construction, "_apery_family",
        lambda gamma, ell, n1, n2: tuple(x + 58 if x == ell * n1 else x
                                         for x in family(gamma, ell, n1, n2)),
    )
    with pytest.raises(AssertionError, match="construction at level 6: generators do not generate"):
        construct_asd(6)


def test_wrong_family_fires_under_python_O():
    proc = _exit_under_python_O(_LIFT_TOP, ["construct", "--ell", "6", "--verify"])
    assert proc.returncode == 4, proc.stderr
    assert "construction at level 6: generators do not generate" in proc.stderr


def test_family_must_cover_each_class_once(monkeypatch):
    family = numsgps.construction._apery_family
    monkeypatch.setattr(numsgps.construction, "_apery_family", lambda *a: family(*a)[1:])
    with pytest.raises(AssertionError, match="construction at level 6: the Apery family"):
        construct_asd(6)


_BASE = "base = numsgps.construction._base_parameters\n"


def test_base_relation_fires_under_python_O():
    proc = _exit_under_python_O(
        _BASE + "numsgps.construction._base_parameters = "
        "lambda ell: (lambda e, n1, n2: (e, n1 + 1, n2))(*base(ell))",
        ["construct", "--ell", "6"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "base generators break ell*n1 + (ell-1)*e = (ell+2)*n2" in proc.stderr


def test_family_collision_fires_under_python_O():
    # n1 + ell + 2 and n2 + ell keep ell*n1 + (ell-1)*e = (ell+2)*n2; at ell = 5 two
    # generators of the families then coincide
    proc = _exit_under_python_O(
        _BASE + "numsgps.construction._base_parameters = "
        "lambda ell: (lambda e, n1, n2: (e, n1 + ell + 2, n2 + ell))(*base(ell))",
        ["construct", "--ell", "5"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "generating families collide unexpectedly" in proc.stderr


def test_excluded_level_family_fires_under_python_O():
    # at ell = 14, gcd(e, n1, n2) = 11: the family misses every class mod 242 off the multiples of 11
    proc = _exit_under_python_O(
        "numsgps.construction.is_excluded_level = lambda ell: False", ["construct", "--ell", "14"],
    )
    assert proc.returncode == 4, proc.stderr
    assert ("construction at level 14: the Apery family does not meet each nonzero class"
            " mod 242 once") in proc.stderr


def test_construction_size_guard(monkeypatch):
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 31)
    # the guard fires before the family is built
    monkeypatch.setattr(numsgps.construction, "_apery_family", None)
    with pytest.raises(ValueError, match="multiplicity 32 exceeds"):
        construct_asd(4)


def test_construct_verify_builds_once(monkeypatch, capsys):
    builds = []
    build = numsgps.construction.construct_asd

    def counted(ell):
        builds.append(ell)
        return build(ell)

    monkeypatch.setattr(numsgps.cli, "construct_asd", counted)
    monkeypatch.setattr(numsgps.construction, "construct_asd", counted)
    assert numsgps.cli.main(["construct", "--ell", "6", "--verify"]) == 0
    assert "certificate: all claims pass" in capsys.readouterr().out
    assert builds == [6]


def _count_steps(monkeypatch) -> list[int]:
    """Wrap ``_min_plus_steps`` in ``core`` and ``hilbert``; one entry a call, the steps it asks."""
    steps = []
    kernel = numsgps.core._min_plus_steps

    def counted(v, shifts, n):
        steps.append(n)
        return kernel(v, shifts, n)

    for module in (numsgps.core, numsgps.hilbert):
        monkeypatch.setattr(module, "_min_plus_steps", counted)
    return steps


def _clear_caches():
    numsgps.hilbert._walk.cache_clear()
    pseudo_frobenius.cache_clear()


@pytest.mark.parametrize("ell", [4, 5, 10, 16])
def test_construction_check_gathers_each_row_once(monkeypatch, ell):
    # the oracle's stable_from + 1 rows, the build certificate, K(S) + M (read by PF and by
    # the definition of almost symmetry alike) and apery_table's gathered Ap(2M); at l = 16
    # the frontier checker replaces the oracle, and it gathers all classes for two rows only
    _clear_caches()
    steps = _count_steps(monkeypatch)
    assert verify_construction(ell).all_passed
    total = sum(steps)
    monkeypatch.undo()
    stable_from = hilbert_through_stabilization(construct_asd(ell).semigroup).stable_from
    if ell == 16:
        assert sorted(steps) == [1, 1, 1, 2] and stable_from == 33
    else:
        assert total == stable_from + 4
    _clear_caches()


def test_info_gathers_one_row(monkeypatch, capsys):
    # PF and both symmetry predicates read the one gather of K(S) + M
    _clear_caches()
    steps = _count_steps(monkeypatch)
    assert numsgps.cli.main(["info", "4,5,11"]) == 0
    assert "almost symmetric:    False" in capsys.readouterr().out
    assert steps == [1]
    _clear_caches()
