import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numsgps.core
from numsgps import (
    AperyTable, CertificationError, ChainStep, Claim, ConstructionCertificate, ConstructionData,
    Fixture, FixtureIntegrityError, GcdError, HilbertFunction, LayerSets, NariPartition,
    NumericalSemigroup, RelativeIdeal, SemigroupError, SizeLimitError, WitnessReport,
    apery_table, check_fixture, construct_asd, get_fixture, gorenstein_witness, hilbert_function,
    ideal_generated_by, ideal_sum, is_symmetric, layer_sets, load_registry, maximal_ideal,
    nari_partition, order_table, parse_generators, predicted_duplication_hilbert,
    pseudo_frobenius, semigroup_as_ideal, standard_canonical_ideal, verify_construction,
)
from numsgps.cli import main
from numsgps.core import (
    _GATHER_CELLS, _UNREACHED, APERY_LIMIT, MULTIPLICITY_LIMIT, _min_plus, _min_plus_steps,
    _relax,
)

from conftest import brute_members, record_narrow, run_script, traced_memory


def test_two_three():
    S = NumericalSemigroup.from_generators([2, 3])
    assert S.min_gens == (2, 3)
    assert S.frobenius == 1
    assert S.conductor == 2
    assert S.gaps == (1,)
    assert S.genus == 1
    # brute-force sieve over [0, 10]
    want = brute_members([2, 3], 11)
    assert {x for x in range(11) if S.contains(x)} == want


def test_redundant_generator_dropped():
    assert NumericalSemigroup.from_generators([2, 3, 4]).min_gens == (2, 3)


def test_gcd_error():
    with pytest.raises(GcdError):
        NumericalSemigroup.from_generators([4, 6])


def test_input_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([-2, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators([2, 2**40 + 1])


def test_naturals():
    N = NumericalSemigroup.from_generators([5, 1])
    assert N.min_gens == (1,)
    assert N.frobenius == -1
    assert N.conductor == 0
    assert N.gaps == ()
    assert N.contains(0) and N.contains(1) and not N.contains(-1)


def test_contains_basics():
    S = NumericalSemigroup.from_generators([4, 6, 7, 9])
    assert S.contains(0)
    assert not S.contains(-4)
    assert not S.contains(5)
    assert all(S.contains(x) for x in range(S.conductor, S.conductor + 20))


def test_minimal_generators_4679():
    # no element of {4,6,7,9} is a sum of two members: checked by sieve
    S = NumericalSemigroup.from_generators([4, 6, 7, 9])
    assert S.min_gens == (4, 6, 7, 9)
    members = brute_members([4, 6, 7, 9], 20)
    for g in S.min_gens:
        assert not any(a in members and g - a in members for a in range(4, g - 3))


def test_immutability_and_equality():
    S = NumericalSemigroup.from_generators([2, 3])
    T = NumericalSemigroup.from_generators([2, 3, 5])
    assert S == T and hash(S) == hash(T)
    with pytest.raises(AttributeError):
        S.frobenius = 7


def _vectors(value) -> list[np.ndarray]:
    """Every Apery vector a semigroup, an ideal or a witness report holds."""
    if isinstance(value, NumericalSemigroup):
        return [value.w]
    if isinstance(value, RelativeIdeal):
        return [value.w, value.ambient.w]
    return [value.final.w, *(step.semigroup.w for step in value.chain)]


def test_semigroups_ideals_and_reports_are_frozen_values_that_copy_and_pickle():
    S = construct_asd(4).semigroup
    E = maximal_ideal(S)
    originals = [S, E, standard_canonical_ideal(S).shift(-3), gorenstein_witness(4, 1)]
    for original in originals:
        for copied in (copy.copy(original), copy.deepcopy(original),
                       pickle.loads(pickle.dumps(original))):
            assert copied == original
            if not isinstance(original, WitnessReport):
                assert hash(copied) == hash(original)
            assert not any(w.flags.writeable for w in _vectors(copied))
    for value, name in ((S, "w"), (S, "multiplicity"), (E, "w")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    values = (NumericalSemigroup, RelativeIdeal, HilbertFunction, AperyTable, LayerSets,
              NariPartition, ChainStep, WitnessReport, ConstructionData, Claim,
              ConstructionCertificate, Fixture)
    assert all(dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
               for cls in values)


def test_every_result_survives_a_json_round_trip():
    data = construct_asd(4)
    S = data.semigroup
    results = [S, standard_canonical_ideal(S), hilbert_function(S, 6), apery_table(S),
               layer_sets(S, 5), nari_partition(S), data, verify_construction(4),
               gorenstein_witness(4, 1)]
    payloads = [x.to_json() for x in results]
    payloads += [[c.to_json() for c in check_fixture(get_fixture(name))]
                 for name in ("ex2_10_l4", "ex3_5_h2")]
    for payload in payloads:
        assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("call", [
    lambda S: NumericalSemigroup.from_generators([4.5, 7]),
    lambda S: NumericalSemigroup.from_generators([4.0, 7]),
    lambda S: RelativeIdeal(S, [0.5, 4], 7),
    lambda S: RelativeIdeal(S, [0, 4], 7.0),
    lambda S: ideal_generated_by(S, [2.7]),
], ids=["generator", "integral_generator", "element", "threshold", "ideal_generator"])
def test_non_integral_input_raises_type_error(call):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(NumericalSemigroup.from_generators([4, 7]))


@pytest.mark.parametrize("call", [
    lambda S: NumericalSemigroup.from_generators([True, 3]),
    lambda S: ideal_generated_by(S, [True]),
    lambda S: RelativeIdeal(S, [False, 4], 7),
], ids=["from_generators", "ideal_generated_by", "RelativeIdeal"])
def test_bool_input_raises_type_error(call):
    # operator.index(True) is 1: a bool would otherwise pass as a generator, as the CLI's
    # parse_generators refuses true/false
    with pytest.raises(TypeError, match="is a bool, not an integer"):
        call(NumericalSemigroup.from_generators([4, 7]))


def test_numpy_integers_pass_as_python_integers():
    S = NumericalSemigroup.from_generators(np.array([4, 7]))
    assert S.min_gens == (4, 7) and all(type(g) is int for g in S.min_gens)
    assert ideal_generated_by(S, np.array([2])) == ideal_generated_by(S, [2])
    assert RelativeIdeal(S, np.array([0, 4]), np.int64(7)).small == (0, 4)


def test_members_up_to_matches_contains():
    S = NumericalSemigroup.from_generators([5, 7, 9])
    table = S.members_up_to(100)
    assert all(bool(table[x]) == S.contains(x) for x in range(100))


@given(st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_membership_matches_brute_combinations(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    bound = 3 * S.conductor + 3
    want = brute_members(S.min_gens, bound)
    assert {x for x in range(bound) if S.contains(x)} == want
    non_members = set(range(bound)) - want
    assert S.frobenius == (max(non_members) if non_members else -1)
    assert S.frobenius == (max(S.gaps) if S.gaps else -1)
    assert S.conductor == S.frobenius + 1
    assert S.embedding_dimension <= S.multiplicity


@given(
    st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_minimal_generators_ignore_redundancy(gens, pads):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    padded = list(gens)
    for i, j in pads:
        padded.append(gens[i % len(gens)] + gens[j % len(gens)])
    assert NumericalSemigroup.from_generators(padded).min_gens == S.min_gens


def test_parse_generators():
    assert parse_generators("2,3") == [2, 3]
    assert parse_generators(" [4, 6, 7] ") == [4, 6, 7]
    with pytest.raises(ValueError):
        parse_generators("2;3")
    with pytest.raises(ValueError):
        parse_generators("[2, \"x\"]")


def test_parse_generators_rejects_json_booleans(capsys):
    with pytest.raises(ValueError):
        parse_generators("[true, 3]")
    assert main(["info", "[true, 3]"]) == 2
    assert "array of integers" in capsys.readouterr().err


@given(st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_apery_vector_matches_brute(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    e, c = S.multiplicity, S.conductor
    members = brute_members(gens, 2 * c + e + max(gens))
    assert S.w.tolist() == [min(x for x in members if x % e == r) for r in range(e)]
    assert not S.w.flags.writeable
    low = [m for m in members if 0 < m <= max(gens)]
    sums = {a + b for a in low for b in low}
    assert S.min_gens == tuple(sorted(g for g in set(gens) if g not in sums))
    gaps = [x for x in range(c) if x not in members]
    assert S.gaps == tuple(gaps) and S.genus == len(gaps)
    # x + m for m > c lies past the conductor anyway
    nonzero = [m for m in members if 0 < m <= c]
    pf = tuple(x for x in gaps if all(x + m in members for m in nonzero))
    assert pseudo_frobenius(S) == (pf or (-1,))


def _sylvester(p, q):
    S = NumericalSemigroup.from_generators([p, q])
    F = p * q - p - q
    assert S.min_gens == (p, q)
    assert S.frobenius == F and S.conductor == F + 1
    assert 2 * S.genus == (p - 1) * (q - 1)
    assert pseudo_frobenius(S) == (F,)
    assert is_symmetric(S)


@pytest.mark.parametrize("p,q", [(3, 2**40), (10007, 10009), (1000003, 1000033)])
def test_two_large_generators(p, q):
    _sylvester(p, q)


@st.composite
def _relax_cases(draw):
    e = draw(st.integers(min_value=1, max_value=40))
    g = draw(st.one_of(st.integers(min_value=1, max_value=3 * e),
                       st.integers(min_value=1, max_value=3).map(lambda laps: laps * e)))
    entry = st.one_of(st.integers(min_value=0, max_value=10**6), st.just(_UNREACHED))
    return draw(st.lists(entry, min_size=e, max_size=e)), g


@given(_relax_cases())
@example(([0, 5, 9, 2, _UNREACHED, 7], 4))  # gcd(g, e) = 2: two cycles of three
@example(([9, 0, 4, 7, 1, 8, 3, 6], 14))  # g > e and gcd 2; the minima sit mid-cycle
@example(([3, _UNREACHED, 1], 6))  # a multiple of e changes nothing
@example(([4, 0, 9, _UNREACHED, 1, 7], 5))  # gcd(g, e) = 1: one cycle, one row of the index
@example(([8, 2, 0, 6, 1, 3, _UNREACHED], 10))  # g > e and gcd 1; the minimum sits mid-cycle
@example(([0, 8, 3, 5, 2, _UNREACHED, 7, 1, 4], 15))  # gcd(g, e) = 3: three cycles of three
@example(([_UNREACHED, _UNREACHED, _UNREACHED, _UNREACHED, 0], 2))  # c_0, c_1 only by the wrap
@example(([_UNREACHED] * 3, 1))  # nothing reached stays unreached
@settings(max_examples=300, deadline=None)
def test_relax_matches_brute_force_over_arbitrary_vectors(case):
    # any vector, not only an Apery one: w[r] becomes the least w[r - k g] + k g over k < e
    v, g = case
    e = len(v)
    want = [min(v[(r - k * g) % e] + k * g for k in range(e)) for r in range(e)]
    w = np.array(v, dtype=np.int64)
    _relax(w, g)
    assert w.tolist() == want


@pytest.mark.parametrize("gens", [[2**18, 2**18 + 1], [999983, 999985, 999989]])
def test_round_robin_peak_memory_per_class(gens):
    # the Apery vector plus _relax's steps, index and prefix minima, each of at most e
    # entries, take 32 bytes a class
    with traced_memory() as mem:
        NumericalSemigroup.from_generators(gens)
    assert mem.peak <= 56 * gens[0]


def _rejected_before_allocating(gens, match):
    with traced_memory() as mem:
        with pytest.raises(ValueError, match=match):
            NumericalSemigroup.from_generators(gens)
    assert mem.peak < 1 << 20  # no 8e-byte vector was allocated


def test_gaps_listed_per_class_and_guarded():
    # <10007, 10009> has genus 50070024; a bool table over [0, c) alone is 764 MiB
    S = NumericalSemigroup.from_generators([10007, 10009])
    with traced_memory() as mem:
        with pytest.raises(ValueError, match=f"gap listing of {S.genus} elements exceeds"):
            S.gaps
    assert mem.peak < 1 << 20


def test_multiplicity_ceiling(monkeypatch):
    _rejected_before_allocating([MULTIPLICITY_LIMIT + 1, MULTIPLICITY_LIMIT + 2], "multiplicity")
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 1000)
    assert NumericalSemigroup.from_generators([1000, 1001]).multiplicity == 1000
    with pytest.raises(ValueError, match="multiplicity"):
        NumericalSemigroup.from_generators([1001, 1002])


def test_apery_headroom_ceiling():
    # (e - 1) * max(gens) is exactly the limit: works, and exact
    assert (2**19) * 2**40 == APERY_LIMIT
    _sylvester(2**19 + 1, 2**40)
    _rejected_before_allocating([2**19 + 3, 2**40], "Apery values")


# at one step, hi = max(v) + max(shifts) on, below and past the int16 and int32
# margins; lo = min(v) + min(shifts) likewise
_NARROW_EDGES = [2**15 - 2, 2**15 - 1, 2**15, -2**15 + 1, -2**15, -2**15 - 1,
                 2**31 - 2, 2**31 - 1, 2**31, -2**31 + 1, -2**31, -2**31 - 1]


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=9),
       st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=6),
       st.sampled_from(_NARROW_EDGES),
       st.one_of(st.integers(min_value=-2**40, max_value=2**40),
                 st.sampled_from([0, 2**15 - 100, -2**15 + 100, 2**31 - 100, -2**31 + 100])),
       st.integers(min_value=1, max_value=4))
@example([0], [0], 2**31 - 2, 0, 1)
@example([0, 5, 9], [3, 60], 2**31 - 1, 2**31 - 100, 1)
@example([7, 0], [1, 2], 2**31, 0, 1)
@example([0, 1, 2], [0, 4], -2**31 + 1, -2**31 + 100, 1)
@example([3, 1], [2], -2**31, 0, 1)
@example([3, 1], [2, 5], -2**31 - 1, 0, 1)
@example([0, 60], [0, 60], 2**31 - 2, 2**40, 1)  # operands far outside int32, sums inside
@example([0, 5, 9], [3, 60], 2**31, 0, 3)  # steps 1 and 2 fit int32; a sum of step 3 is 2**31
@example([3, 1], [2, 5], -2**31 + 1, 0, 4)  # s_lo < 0: v_4 falls to the lower margin
@example([3, 1], [2, 5], -2**31 - 1, 0, 4)  # s_lo < 0: only v_4 falls past it
@example([0, 5, 9], [3, 60], 2**15 - 2, 0, 3)  # a sum of step 3 is 2**15 - 2: int16 to the end
@example([0, 5, 9], [3, 60], 2**15, 0, 3)  # steps 1 and 2 fit int16; a sum of step 3 is 2**15
@example([0, 5, 9], [3, 60], 2**15 - 1, 2**15 - 100, 1)
@example([3, 1], [2, 5], -2**15 + 1, 0, 4)  # s_lo < 0: v_4 falls to the int16 lower margin
@example([3, 1], [2, 5], -2**15 - 1, 0, 4)  # s_lo < 0: only v_4 falls past it
@settings(max_examples=200, deadline=None)
def test_min_plus_exact_across_the_int32_limits(v, shifts, edge, split, steps):
    # the extreme sum of the last step, max(v) + (steps - 1) min(shifts) + max(shifts) if
    # edge > 0 and min(v) + steps min(shifts) else, lands on edge: v moves by split (plus
    # the remainder), each shift by the rest divided by steps
    extreme = (max(v) + (steps - 1) * min(shifts) + max(shifts) if edge > 0
               else min(v) + steps * min(shifts))
    move, rest = divmod(edge - extreme - split, steps)
    v = [x + split + rest for x in v]
    shifts = [s + move for s in shifts]
    e = len(v)
    want = [v]
    for _ in range(steps):
        want.append([min(want[-1][(r - s) % e] + s for s in shifts) for r in range(e)])
    got = list(_min_plus_steps(np.array(v, dtype=np.int64), shifts, steps))
    assert [row.dtype for row in got] == [np.int64] * steps
    assert [row.tolist() for row in got] == want[1:]
    assert _min_plus(np.array(v, dtype=np.int64), shifts).tolist() == want[1]


@pytest.mark.parametrize("cells", [1, 40, 1 << 16])
def test_min_plus_steps_with_one_shift_per_block_match_brute_force(rng, monkeypatch, cells):
    # a block takes cells // e windows, at least one: cells 1 leaves one shift per block,
    # as e > 2**16 does, cells 40 one or several by e, and 2**16 every shift in one block
    monkeypatch.setattr(numsgps.core, "_GATHER_CELLS", cells)
    for _ in range(40):
        e = rng.randint(1, 30)
        v = [rng.randint(-50, 50) for _ in range(e)]
        shifts = rng.sample(range(-20, 80), rng.randint(1, 9))
        want = [v]
        for _ in range(3):
            want.append([min(want[-1][(r - s) % e] + s for s in shifts) for r in range(e)])
        got = [row.tolist() for row in _min_plus_steps(np.array(v, dtype=np.int64), shifts, 3)]
        assert got == want[1:]


def test_min_plus_steps_past_the_gather_block_keep_the_first_window(rng):
    # e > _GATHER_CELLS: every window is its own block and all but the first are shifted
    # into one spare row, so the first must not live there; descending shifts make the
    # later windows differ from it on most classes
    e = _GATHER_CELLS + 7
    v = np.array([rng.randint(-300, 300) for _ in range(e)], dtype=np.int64)
    shifts = [90001, 4099, 17, 3]
    want = [v]
    for _ in range(3):
        want.append(np.min([np.roll(want[-1], s) + s for s in shifts], axis=0))
    got = list(_min_plus_steps(v, shifts, 3))
    assert all(np.array_equal(a, b) for a, b in zip(got, want[1:], strict=True))
    assert np.array_equal(_min_plus(v, shifts), want[1])


@pytest.mark.parametrize("cells", [4, 1 << 16])
@pytest.mark.parametrize("scale, dtype", [(1, np.int16), (10**5, np.int32), (10**12, np.int64)])
@pytest.mark.parametrize("overwrite", [False, True])
def test_min_plus_steps_match_brute_force_in_each_branch_and_dtype(rng, monkeypatch, cells,
                                                                   scale, dtype, overwrite):
    # cells 4 < e: the one-window branch reads each window as two slices of v_j; 2**16: the
    # blocked branch.  A consumer may write into each yielded vector before advancing, and
    # in int64 that vector is the kernel's own row
    monkeypatch.setattr(numsgps.core, "_GATHER_CELLS", cells)
    chosen = record_narrow(monkeypatch, numsgps.core)
    for _ in range(20):
        e = rng.randint(5, 30)
        v = [rng.randint(-50, 50) * scale for _ in range(e)]
        shifts = [s * scale for s in rng.sample(range(-20, 80), rng.randint(1, 6))]
        shifts.append(rng.choice([0, e, -2 * e]) * scale)  # a window that starts at e
        want = [v]
        for _ in range(3):
            want.append([min(want[-1][(r - s) % e] + s for s in shifts) for r in range(e)])
        got = []
        for row in _min_plus_steps(np.array(v, dtype=np.int64), shifts, 3):
            got.append(row.tolist())
            if overwrite:
                row[:] = -(1 << 62)
        assert got == want[1:]
    assert set(chosen) == {dtype}


def test_min_plus_indices_stay_int64_when_e_passes_the_int16_range(monkeypatch):
    # the values fit int16, but e does not: the window starts e - (s mod e) must come
    # from int64 shifts, and the int16 sums must not wrap
    e = 40000
    v = np.arange(e, dtype=np.int64) - e // 2
    chosen = record_narrow(monkeypatch, numsgps.core)
    want = [v.tolist()]
    for _ in range(2):
        want.append([min(want[-1][(r - s) % e] + s for s in (1, 2)) for r in range(e)])
    assert [row.tolist() for row in _min_plus_steps(v, [1, 2], 2)] == want[1:]
    assert _min_plus(v, [1, 2]).tolist() == want[1]
    assert chosen == [np.int16, np.int16]


def test_certification_error_is_typed_and_fires_under_python_O():
    # a domain error of this package that every AssertionError handler still catches
    assert issubclass(CertificationError, SemigroupError)
    assert issubclass(CertificationError, AssertionError)
    # <4, 5> do not generate the Apery set of <4, 5, 6>; -O strips assert statements only
    proc = run_script(
        "import sys\n"
        "import numsgps.core as core\n"
        "S = core.NumericalSemigroup.from_generators([4, 5, 6])\n"
        "try:\n"
        "    core._certify_generators((4, 5), S.w, 'closed form')\n"
        "except core.CertificationError as exc:\n"
        "    print(sys.flags.optimize, isinstance(exc, AssertionError), exc)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 True closed form: generators do not generate the closed-form"
                           " Apery set\n")


@pytest.mark.parametrize("call, message", [
    (lambda: NumericalSemigroup.from_generators([3, 2**41 + 1]), "generator 2199023255553"),
    (lambda: NumericalSemigroup.from_generators([2**24 + 1, 2**24 + 2]), "multiplicity 16777217"),
    (lambda: NumericalSemigroup.from_generators([2**20, 2**40 - 1]), "Apery values up to"),
    (lambda: NumericalSemigroup.from_generators([2, 2**23 + 3]).gaps, "gap listing of 4194305"),
    (lambda: hilbert_function(NumericalSemigroup.from_generators([3, 5]), 2**22 + 1),
     "h_max 4194305"),
    (lambda: layer_sets(NumericalSemigroup.from_generators([3, 5]), 2**21), "layer grid of"),
    (lambda: order_table(NumericalSemigroup.from_generators([3, 5]), 10**9), "order table of"),
    (lambda: construct_asd(2048), "level 2048: the s and r families"),
    (lambda: semigroup_as_ideal(NumericalSemigroup.from_generators([3, 5])).shift(2**60),
     "ideal elements"),
    (lambda: RelativeIdeal(NumericalSemigroup.from_generators([3, 5]), [2**70], 5),
     "ideal elements exceed"),
    (lambda: NumericalSemigroup.from_generators([3, 5]).members_up_to(2**40),
     "member table of 1099511627776"),
])
def test_size_guards_raise_the_typed_error(call, message):
    # a size guard is a typed domain error that every ValueError handler still catches
    assert issubclass(SizeLimitError, SemigroupError) and issubclass(SizeLimitError, ValueError)
    assert "SizeLimitError" in numsgps.__all__
    with pytest.raises(SizeLimitError, match="exceeds? the supported") as info:
        call()
    assert str(info.value).startswith(message)


def _alias_to_an_unknown_fixture(tmp_path):
    (tmp_path / "index.json").write_text(json.dumps({"fixtures": {}, "aliases": {"a": "b"}}))
    return load_registry(str(tmp_path))


_S47 = NumericalSemigroup.from_generators([4, 7])


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: hilbert_function(_S47, 3).value_at(-1), ValueError,
     "Hilbert function is defined for h >= 0"),
    (lambda tmp: layer_sets(_S47, 1), ValueError, "k_max must be at least 2"),
    (lambda tmp: predicted_duplication_hilbert(hilbert_function(_S47, 3), 1, 0), ValueError,
     "h_max must be at least 1"),
    (lambda tmp: ideal_generated_by(_S47, []), ValueError, "an ideal needs at least one generator"),
    (lambda tmp: ideal_sum(maximal_ideal(_S47),
                           maximal_ideal(NumericalSemigroup.from_generators([3, 5]))),
     ValueError, "ideal sum requires a common ambient semigroup"),
    (lambda tmp: RelativeIdeal(_S47, [0, 4], 8), ValueError,
     "not an ideal: 7 is a member plus a generator but not a member"),
    (_alias_to_an_unknown_fixture, FixtureIntegrityError,
     "alias 'a' points at unknown fixture 'b'"),
], ids=["value_at", "layer_sets", "predicted", "no_generators", "ideal_sum", "not_closed",
        "alias"])
def test_input_errors_name_what_is_wrong(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
