import hashlib
import json
import math
import random
import warnings
from functools import lru_cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numsgps
from numsgps import (
    HilbertFunction,
    NotMember,
    NotStabilized,
    NumericalSemigroup,
    apery_table,
    construct_asd,
    decrease_levels,
    element_order,
    fixture_semigroup,
    gorenstein_witness,
    hilbert_by_set_construction,
    hilbert_function,
    hilbert_through_stabilization,
    ideal_sum,
    is_almost_symmetric,
    is_excluded_level,
    layer_sets,
    maximal_ideal,
    order_table,
    pseudo_frobenius,
    standard_canonical_ideal,
)
from numsgps.core import _min_plus
from numsgps.hilbert import _from_rows, _frontier_checked, _levels, _walk

from conftest import (
    _exit_under_python_O,
    brute_hilbert,
    brute_active_generators,
    brute_layer_sets,
    brute_members,
    brute_orders,
    count_gathers,
    dense_apery_rows,
    random_semigroup,
    record_narrow,
    run_capped,
    run_capped_cli,
    run_script,
    traced_memory,
    walk_rows,
)


def semigroup_gens(max_gen: int = 20):
    gens = st.lists(st.integers(min_value=2, max_value=max_gen), min_size=1, max_size=4)
    return gens.filter(lambda g: math.gcd(*g) == 1)


def test_element_order_known_values():
    S = construct_asd(4).semigroup
    assert element_order(S, 0) == 0
    assert element_order(S, 66) == 2
    assert element_order(S, 99) == 3
    assert element_order(S, 132) == 4
    with pytest.raises(NotMember):
        element_order(S, 63)


def test_orders_match_brute_dp(rng):
    for _ in range(25):
        S = random_semigroup(rng)
        bound = S.conductor + 3 * S.multiplicity
        want = brute_orders(S.min_gens, bound)
        for s, o in want.items():
            assert element_order(S, s) == o


def test_apery_two_three():
    ap = apery_table(NumericalSemigroup.from_generators([2, 3]))
    assert ap.elements == (0, 3)
    assert ap.strata == {1: (3,)}


def test_apery_construction_strata():
    ap4 = apery_table(construct_asd(4).semigroup)
    assert ap4.stratum(2) == (66, 71, 76)
    assert ap4.stratum(3) == (99,)
    assert ap4.stratum(4) == (132,)
    assert ap4.max_order == 4

    ap5 = apery_table(construct_asd(5).semigroup)
    assert ap5.stratum(2) == (106, 116, 126)
    assert ap5.stratum(3) == (159,)
    assert ap5.stratum(4) == (212,)
    assert ap5.stratum(5) == (265,)


def test_apery_residues_and_count(rng):
    for _ in range(20):
        S = random_semigroup(rng)
        ap = apery_table(S)
        e = S.multiplicity
        assert len(ap.elements) == e
        assert sorted(a % e for a in ap.elements) == list(range(e))
        assert sum(len(v) for v in ap.strata.values()) == e - 1
        for a in ap.elements:
            assert S.contains(a) and not S.contains(a - e)


def test_hilbert_two_three_brute():
    S = NumericalSemigroup.from_generators([2, 3])
    H = hilbert_function(S, 6)
    assert list(H.values) == brute_hilbert([2, 3], 6) == [1, 2, 2, 2, 2, 2, 2]
    assert H.stable_from == 1


def test_hilbert_construction_values():
    H4 = hilbert_function(construct_asd(4).semigroup, 10)
    assert H4.values == (1, 27, 27, 27, 26, 27, 29, 30, 31, 32, 32)
    assert H4.stable_from == 9
    H5 = hilbert_function(construct_asd(5).semigroup, 7)
    assert H5.values == (1, 38, 38, 38, 38, 37, 44, 44)
    assert H5.stable_from == 6


def test_hilbert_matches_brute_sumsets(rng):
    for _ in range(12):
        S = random_semigroup(rng, max_mult=7)
        H = hilbert_function(S, 6)
        assert list(H.values) == brute_hilbert(S.min_gens, 6)


def test_decrease_levels():
    assert decrease_levels(hilbert_function(construct_asd(4).semigroup, 10)) == (4,)
    assert decrease_levels(hilbert_function(NumericalSemigroup.from_generators([2, 3]), 4)) == ()
    H_i = hilbert_through_stabilization(fixture_semigroup("ex2_13_i"), 4)
    assert decrease_levels(H_i) == (2,)


def test_decrease_levels_requires_stabilization():
    H = HilbertFunction(values=(1, 5, 4), stable_from=None)
    with pytest.raises(NotStabilized):
        decrease_levels(H)


def test_value_at_extends_only_when_stable():
    H = hilbert_function(NumericalSemigroup.from_generators([3, 4]), 4)
    assert H.value_at(40) == 3
    with pytest.raises(NotStabilized):
        HilbertFunction(values=(1, 2), stable_from=None).value_at(5)


def test_hilbert_rejects_small_hmax():
    with pytest.raises(ValueError):
        hilbert_function(NumericalSemigroup.from_generators([2, 3]), 0)


def test_layer_sets_construction():
    S = construct_asd(4).semigroup
    layers = layer_sets(S, 4)
    assert layers.c_sets[2] == (66, 71, 76)
    # shifted top layer: {(l+1)n1, l n1 + n2, ..., (l+1)n2} with n1=33, n2=38
    d4_shifted = tuple(sorted(s + 32 for s in layers.d_sets[4]))
    assert d4_shifted == (165, 170, 175, 180, 185, 190)
    assert len(layers.d_sets[4]) == 6


def test_layer_sets_can_be_empty():
    layers = layer_sets(NumericalSemigroup.from_generators([2, 3]), 3)
    assert layers.c_sets[2] == () and layers.d_sets[2] == ()


def test_layer_sets_refinement_partitions(rng):
    for _ in range(15):
        S = random_semigroup(rng)
        layers = layer_sets(S, 5)
        for k in range(2, 6):
            refined = layers.d_refined[k]
            combined = [s for t in refined for s in refined[t]]
            assert sorted(combined) == list(layers.d_sets[k])
            assert all(t > k for t in refined)


def test_hilbert_difference_identity(rng):
    # H(k-1) - H(k) = |D_k| - |C_k|
    cases = [random_semigroup(rng) for _ in range(15)]
    cases.append(construct_asd(4).semigroup)
    cases.append(fixture_semigroup("ex3_9_nonproper"))
    for S in cases:
        H = hilbert_function(S, 7)
        layers = layer_sets(S, 7)
        for k in range(2, 8):
            assert H.values[k - 1] - H.values[k] == len(layers.d_sets[k]) - len(layers.c_sets[k])


def test_construction_c_and_d_shape():
    # C_h = {h*n1, (h-1)*n1 + n2, ..., h*n2} of size h+1 for 2 <= h <= ell
    for ell in (4, 5, 6):
        data = construct_asd(ell)
        layers = layer_sets(data.semigroup, ell)
        for h in range(2, ell + 1):
            want = tuple(sorted((h - j) * data.n1 + j * data.n2 for j in range(h + 1)))
            assert layers.c_sets[h] == want
            assert len(layers.c_sets[h]) == h + 1
        assert len(layers.d_sets[ell]) == ell + 2


def test_set_construction_oracle_agrees(rng):
    for _ in range(15):
        S = random_semigroup(rng)
        H = hilbert_function(S, 8)
        assert list(H.values) == hilbert_by_set_construction(S, 8)


@given(st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_hilbert_shape_properties(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    H = hilbert_through_stabilization(S, 4)
    assert H.values[0] == 1
    assert all(1 <= v <= S.multiplicity for v in H.values[1:]) or S.multiplicity == 1
    assert H.stable_value == S.multiplicity
    assert H.values[1] == S.embedding_dimension or S.conductor == 0
    levels = decrease_levels(H)
    assert all(H.values[h - 1] > H.values[h] for h in levels)


def test_element_order_huge_element():
    S = NumericalSemigroup.from_generators([4, 6, 7])
    assert element_order(S, 10**12) == 250000000000
    assert element_order(S, 10**12 + 13) == 250000000002


def test_element_order_past_int64():
    # 2**64 = 4 * 2**62 in class 0, where W_k[0] = 4 k
    S = NumericalSemigroup.from_generators([4, 6, 7])
    assert S.contains(2**64)
    assert element_order(S, 2**64) == 2**62
    assert element_order(S, 2**63) == 2**61
    assert element_order(S, 2**63 + 13) == element_order(S, 13) + 2**61
    # either side of 2**62: past W_R each e adds one order
    orders = brute_orders(S.min_gens, 104)
    assert element_order(S, 2**62 - 1) == orders[103] + (2**62 - 1 - 103) // 4
    assert element_order(S, 2**62) == orders[100] + (2**62 - 100) // 4 == 2**60


@given(semigroup_gens())
@settings(max_examples=40, deadline=None)
def test_order_table_past_reduction_matches_brute(gens):
    S = NumericalSemigroup.from_generators(gens)
    e = S.multiplicity
    # the reduction index is at most e, so this window reaches beyond it
    bound = S.conductor + (e + 3) * e
    want = brute_orders(S.min_gens, bound)
    got = order_table(S, bound)
    assert {s: int(got[s]) for s in range(bound) if got[s] >= 0} == want
    assert all(got[s] == -1 for s in range(bound) if s not in want)


@given(st.randoms(use_true_random=False).map(lambda rng: random_semigroup(rng).min_gens))
@example((1,))  # e = R = 1
@example((2, 3))
@example((150, 151))  # an int16 walk of 150 levels; its rises stay below 22500
@example((184, 187, 431, 521))  # an int16 walk whose rises pass 2**15: a narrow sum would wrap
@settings(max_examples=40, deadline=None)
def test_orders_off_the_rises_match_brute(gens):
    S = NumericalSemigroup.from_generators(gens)
    e, R = S.multiplicity, hilbert_through_stabilization(S).stable_from + 1
    past = int(S.w.max()) + (R + 1) * e + 1  # W_R <= W_0 + R e
    for bound in (-3, 0, 1, (R // 2) * e + 1, past):  # the fourth is no multiple of e > 1
        got = order_table(S, bound)
        want = {s: o for s, o in brute_orders(S.min_gens, bound).items() if s < bound}
        assert got.dtype == np.int64 and len(got) == max(bound, 0)
        assert {s: int(got[s]) for s in range(len(got)) if got[s] >= 0} == want
        assert all(got[s] == -1 for s in range(len(got)) if s not in want)
        # a call walks up to R levels, so past 300 members an even spread of them and the last
        members = sorted(want)
        for s in members[:: max(1, len(members) // 300)] + members[-1:]:
            assert element_order(S, s) == got[s]


def test_order_table_level_reads_do_not_grow_with_the_bound(monkeypatch):
    # each level gathers only its rising classes off the row; the one pass over [0, bound)
    # reads D_K after the last level, so only the last level's count grows with the bound
    read = []
    levels = numsgps.hilbert._levels

    class Row(np.ndarray):
        def __getitem__(self, index):
            out = super().__getitem__(index).view(np.ndarray)  # what is read off it is not counted
            read[-1] += out.size
            return out

    def recorded(S):
        for D, inZ in levels(S):
            read.append(0)
            yield D.view(Row), inZ

    monkeypatch.setattr(numsgps.hilbert, "_levels", recorded)
    S = NumericalSemigroup.from_generators([101, 103])
    counts, tables = [], []
    for bound in (2**16, 2**17):
        read.clear()
        tables.append(order_table(S, bound))
        counts.append(read.copy())
    assert counts[0][:-1] == counts[1][:-1] and max(counts[0][:-1]) <= S.multiplicity
    assert counts[1][-1] - counts[0][-1] == 2**16
    assert np.array_equal(tables[1][: 2**16], tables[0])


def _assert_apery_matches_brute(S):
    e = S.multiplicity
    bound = S.conductor + e
    orders = brute_orders(S.min_gens, bound)
    members = sorted(brute_members(S.min_gens, bound))
    apery = sorted({s % e: s for s in reversed(members)}.values())
    strata: dict[int, tuple[int, ...]] = {}
    for a in apery[1:]:
        strata[orders[a]] = strata.get(orders[a], ()) + (a,)
    ap = apery_table(S)
    assert ap.elements == tuple(apery)
    assert ap.orders == {a: orders[a] for a in apery}
    assert ap.strata == dict(sorted(strata.items()))


@given(semigroup_gens())
@settings(max_examples=40, deadline=None)
def test_apery_strata_match_brute(gens):
    _assert_apery_matches_brute(NumericalSemigroup.from_generators(gens))


@given(semigroup_gens(max_gen=12))
@settings(max_examples=30, deadline=None)
def test_hilbert_through_stabilization_matches_brute(gens):
    S = NumericalSemigroup.from_generators(gens)
    H = hilbert_through_stabilization(S)
    e, start = S.multiplicity, H.stable_from
    brute = brute_hilbert(S.min_gens, start + 3)
    assert list(H.values) == brute[: len(H.values)]
    assert brute[start:] == [e] * 4
    assert start == 0 or brute[start - 1] != e


@given(semigroup_gens(max_gen=12), st.integers(min_value=0, max_value=30))
# window edges: c < e only for <1> (c = 0); c = e for <2,3> and <5,...,9>; c = 3e for <3,7,11>
@example([1], 4)
@example([2, 3], 5)
@example([3, 7, 11], 6)
@example([5, 6, 7, 8, 9], 8)
@example(list(fixture_semigroup("ex3_9_nonproper").min_gens), 6)
@settings(max_examples=40, deadline=None)
def test_set_construction_oracle_matches_brute(gens, extra):
    S = NumericalSemigroup.from_generators(gens)
    # h_max from 0 to e + 3, past the reduction index (at most e)
    h_max = extra % (S.multiplicity + 4)
    assert hilbert_by_set_construction(S, h_max) == brute_hilbert(S.min_gens, h_max)


def test_set_construction_oracle_memory_below_conductor_tables():
    # c is about 10^8, so a bool table over [0, c) takes 100 MB; the oracle holds
    # a few Apery vectors of e = 10007 entries, 80 KB each in int64
    S = NumericalSemigroup.from_generators([10007, 10009])
    with traced_memory() as mem:
        values = hilbert_by_set_construction(S, 3)
    assert mem.peak < 1 << 20
    assert values == [1, 2, 3, 4]


def _assert_rows_match_dense(S):
    # W_k = D_k + k e, and Z_k = {s : W_k[s] = W_{k-1}[s]} with Z_0 every class
    e = S.multiplicity
    levels = [(D.astype(np.int64) + k * e, inZ.copy()) for k, (D, inZ) in enumerate(_levels(S))]
    want = dense_apery_rows(S)
    assert len(levels) == len(want)
    for k, (got, inZ) in enumerate(levels):
        assert np.array_equal(got, want[k])
        assert np.array_equal(inZ, want[k] == want[k - 1] if k else np.ones(e, dtype=bool))
    for (lo, _), (hi, _) in zip(levels, levels[1:]):
        assert (lo <= hi).all() and (hi <= lo + e).all()


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([5, 9, 20, 40]))
@example([1], None)
@example([2, 3], None)
@example([4, 5, 6], None)
@example([5, 6, 7, 8, 9], None)
@example(None, 1)
@example(None, 2)
@example(None, 31)
@example(None, 101)
@example(None, 1009)
@settings(max_examples=60, deadline=None)
def test_apery_rows_match_dense_recurrence(seed, mult):
    # seed None: the two-generator semigroup <mult, mult + 1> (<1> for mult 1); a list: those generators
    if isinstance(seed, list):
        S = NumericalSemigroup.from_generators(seed)
    elif seed is None:
        S = NumericalSemigroup.from_generators([mult, mult + 1])
    else:
        S = random_semigroup(random.Random(seed), max_mult=mult)
    _assert_rows_match_dense(S)
    # H(k) = e exactly from R - 1 on, and the dense walk holds the R + 1 rows W_0..W_R
    assert hilbert_through_stabilization(S).stable_from == len(dense_apery_rows(S)) - 2


def test_apery_rows_of_witness_semigroups_match_dense_recurrence():
    # nu stays close to e along the chain and at the final (e = 256), so W_2
    # read off the generators decides almost every class
    report = gorenstein_witness(4, 3)
    semigroups = [step.semigroup for step in report.chain] + [report.final]
    assert report.final.multiplicity == 256
    for S in semigroups:
        _assert_rows_match_dense(S)


@given(semigroup_gens(max_gen=12))
@example([1])
@example([5, 6, 7, 8, 9])
@settings(max_examples=50, deadline=None)
def test_first_hilbert_value_is_the_embedding_dimension(gens):
    S = NumericalSemigroup.from_generators(gens)
    H = _from_rows(S, 1, extend=False)
    assert H.values[1] == S.embedding_dimension == brute_hilbert(S.min_gens, 1)[1]


def test_rows_of_full_embedding_dimension_gather_nothing(monkeypatch):
    # nu = e: every nonzero Apery element is a generator, so W_2 = W_1 + e and R = 2
    cells = count_gathers(monkeypatch)
    rows = walk_rows(NumericalSemigroup.from_generators([5, 6, 7, 8, 9]))
    assert len(rows) == 3 and np.array_equal(rows[2], rows[1] + 5)
    assert cells == [0]


def _walk_cells(S: NumericalSemigroup, rows: list[np.ndarray]) -> tuple[int, int]:
    """The cells the walk gathers, sum over k >= 2 of |Z_k| |A_{k-1}|, and the same with nu - 1.

    Z_k = {s : W_k[s] = W_{k-1}[s]}.  A_{k-1} is read off the dense rows; level 2
    starts from G \\ {e}, as W_2 is read off the generators with no gather.
    """
    active = [set(S.min_gens[1:])] + brute_active_generators(S, rows)[2:]
    frontiers = [np.count_nonzero(hi == lo) for lo, hi in zip(rows[1:], rows[2:])]
    return (sum(z * len(A) for z, A in zip(frontiers, active)),
            sum(frontiers) * (S.embedding_dimension - 1))


def test_rows_gather_from_the_second_frontier_on(monkeypatch):
    # level k >= 2 gathers |Z_k| |A_{k-1}| cells, over the generators active at level k - 1
    cells = count_gathers(monkeypatch)
    for S, want in ((NumericalSemigroup.from_generators([4, 5, 6]), 2),  # Z_2 = {3}, Z_3 = {}
                    (construct_asd(4).semigroup, 184)):  # 832 over all of G \ {e}
        rows = dense_apery_rows(S)
        cells[0] = 0
        list(_levels(S))
        assert cells == [_walk_cells(S, rows)[0]] == [want]


def test_witness_rows_gather_under_half_the_frontier_cells(monkeypatch):
    # without the active set every frontier class would gather nu - 1 cells
    final = gorenstein_witness(4, 3).final
    rows = dense_apery_rows(final)
    cells = count_gathers(monkeypatch)
    list(_levels(final))
    exact, frontier_cells = _walk_cells(final, rows)
    assert cells == [exact]
    assert 2 * exact < frontier_cells


@lru_cache(maxsize=None)
def _witness_semigroups(level: int, drop: int) -> tuple[NumericalSemigroup, ...]:
    report = gorenstein_witness(level, drop)
    return tuple(step.semigroup for step in report.chain) + (report.final,)


@given(st.one_of(
    st.builds(lambda seed, mult: random_semigroup(random.Random(seed), max_mult=mult),
              st.integers(min_value=0, max_value=2**32), st.sampled_from([5, 9, 20, 40])),
    st.sampled_from([(2, 1), (3, 2), (4, 3), (6, 1)]).flatmap(
        lambda item: st.sampled_from(_witness_semigroups(*item)))),
       st.sampled_from([3, 7, 1 << 16]))
@example(NumericalSemigroup.from_generators([1]), 1 << 16)
@example(NumericalSemigroup.from_generators([5, 6, 7, 8, 9]), 3)
@settings(max_examples=60, deadline=None)
def test_active_generators_nest_and_set_the_gathered_cells(S, block_cells):
    # g not active at level k (no class s with W_k[s] + g = W_k[(s + g) mod e]) is not
    # active later, e never is, and the walk gathers over exactly the active ones, also
    # when a few cells per block spread a level, and its active set, over many blocks
    rows = dense_apery_rows(S)
    active = brute_active_generators(S, rows)
    assert all(later <= earlier for earlier, later in zip(active, active[1:]))
    assert all(S.multiplicity not in A for A in active)
    assert not active[-1]  # Z_{R+1} would be empty: nothing keeps a class at level R
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numsgps.hilbert, "_GATHER_CELLS", block_cells)
        cells = count_gathers(patch)
        got = walk_rows(S)
    assert cells == [_walk_cells(S, rows)[0]]
    assert [row.tolist() for row in got] == [row.tolist() for row in rows]


def _redundant_generator_semigroup() -> NumericalSemigroup:
    # 11 = 5 + 6 is the Apery element of its class, but not a minimal generator
    return NumericalSemigroup((4, 5, 6, 11), NumericalSemigroup.from_generators([4, 5, 6]).w.copy())


def test_order_one_certificate_catches_a_redundant_generator():
    with pytest.raises(AssertionError, match=r"^order-1 Apery stratum differs from the Apery elements"
                                             r" outside the gathered Ap\(2M\)$"):
        apery_table(_redundant_generator_semigroup())
    _walk.cache_clear()


def test_layer_sets_catch_a_redundant_generator():
    # the layer sets count their own Apery orders and gather Ap(2M) once, as apery_table does
    with pytest.raises(AssertionError, match=r"^order-1 Apery stratum differs from the Apery elements"
                                             r" outside the gathered Ap\(2M\)$"):
        layer_sets(_redundant_generator_semigroup(), 3)


def test_order_one_certificate_catches_a_generator_off_the_apery_set():
    # 9 = 5 + 4 is no Apery element: class 1 holds 5, so the order-1 stratum misses 9
    S = NumericalSemigroup((4, 5, 6, 9), NumericalSemigroup.from_generators([4, 5, 6]).w.copy())
    with pytest.raises(AssertionError,
                       match="^order-1 Apery stratum differs from the minimal generators$"):
        apery_table(S)
    _walk.cache_clear()


def test_malformed_apery_set_fires_under_python_O():
    # w[0] = 4: the rows are walked, but no Apery set holds 0 first
    proc = run_script(
        "import sys\n"
        "import numpy as np\n"
        "from numsgps import NumericalSemigroup, apery_table\n"
        "from numsgps.core import CertificationError\n"
        "try:\n"
        "    apery_table(NumericalSemigroup((4, 5, 6), np.array([4, 5, 6, 11])))\n"
        "except CertificationError as exc:\n"
        "    print(sys.flags.optimize, exc)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 malformed Apery set\n"


def test_hilbert_cross_check_catches_a_redundant_generator():
    # the rows raise class 3 at W_2 (H(1) = 2); the oracle counts |M \ 2M| = 3
    with pytest.raises(AssertionError, match="Apery-row and set-construction Hilbert values disagree"):
        hilbert_function(_redundant_generator_semigroup(), 3)
    _walk.cache_clear()


@given(semigroup_gens(max_gen=12), st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
@example([1], None)
@example([1], 4)
@example([2, 3], 3)
@example([5, 6, 7, 8, 9], None)
@example(list(fixture_semigroup("ex3_9_nonproper").min_gens), 6)
@settings(max_examples=60, deadline=None)
def test_frontier_checker_matches_the_oracle_and_brute(gens, h_max):
    # through stabilization (None) or to a bounded h_max, past R or short of it
    S = NumericalSemigroup.from_generators(gens)
    n = hilbert_through_stabilization(S).stable_from if h_max is None else h_max
    checked = _frontier_checked(S, n)
    assert all(type(h) is int for h in checked)
    assert checked == hilbert_by_set_construction(S, n) == brute_hilbert(S.min_gens, n)


def test_frontier_checker_widens_past_the_walks_int16_range(monkeypatch):
    # max(W_0) = 30538 and max(G) = 10745: the walk's [-10745, 30538] fits int16, but the gaps
    # D[r] - g - D[s] reach -10745 - 30538, which wraps int16 into a false certificate failure
    S = NumericalSemigroup.from_generators([27, 1131, 10745])
    chosen = record_narrow(monkeypatch, numsgps.hilbert)
    assert _frontier_checked(S, 10) == hilbert_by_set_construction(S, 10)
    assert chosen == [np.int32]
    assert next(_levels(S))[0].dtype == np.int16


def test_frontier_checker_rise_certificate_fires_under_python_O():
    # a first min+ step that raises class 1 by 2e is no min+ step of Apery rows
    proc = run_script(
        "import sys\n"
        "import numsgps.hilbert as hilbert\n"
        "from numsgps import construct_asd\n"
        "from numsgps.core import CertificationError\n"
        "steps = hilbert._min_plus_steps\n"
        "def bumped(v, shifts, n):\n"
        "    for row in steps(v, shifts, n):\n"
        "        row[1] += 2 * len(row)\n"
        "        yield row\n"
        "hilbert._min_plus_steps = bumped\n"
        "try:\n"
        "    hilbert._frontier_checked(construct_asd(16).semigroup, 5)\n"
        "except CertificationError as exc:\n"
        "    print(sys.flags.optimize, exc)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 frontier checker: a min+ step rose by other than 0 or e\n"


def test_frontier_checker_gap_certificate_fires_under_python_O():
    # gaps formed in int16 wrap on <27, 1131, 10745>: a wrapped gap reads above 0
    proc = run_script(
        "import sys\n"
        "import numpy as np\n"
        "import numsgps.hilbert as hilbert\n"
        "from numsgps import NumericalSemigroup\n"
        "from numsgps.core import CertificationError\n"
        "hilbert._narrow = lambda lo, hi: np.int16\n"
        "try:\n"
        "    hilbert._frontier_checked(NumericalSemigroup.from_generators([27, 1131, 10745]), 10)\n"
        "except CertificationError as exc:\n"
        "    print(sys.flags.optimize, exc)\n",
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 frontier checker: a frontier entry plus a generator lies"
                           " below its row\n")


def test_frontier_checked_cross_check_catches_a_corrupted_walk(monkeypatch):
    # the walk drops one class from Z_3, so its H(2) is one too large; the checker's is not
    levels = numsgps.hilbert._levels

    def corrupted(S):
        for k, (D, inZ) in enumerate(levels(S)):
            if k == 3:
                inZ = inZ.copy()
                inZ[inZ.argmax()] = False
            yield D, inZ

    monkeypatch.setattr(numsgps.hilbert, "_levels", corrupted)
    _walk.cache_clear()
    with pytest.raises(AssertionError,
                       match="^Apery-row and frontier-checked Hilbert values disagree$"):
        hilbert_through_stabilization(construct_asd(16).semigroup)
    _walk.cache_clear()


@pytest.mark.parametrize("S, call, route", [
    (construct_asd(4).semigroup, hilbert_through_stabilization, "dense"),
    (construct_asd(16).semigroup, hilbert_through_stabilization, "frontier"),
    (NumericalSemigroup.from_generators([4, 6, 7]), hilbert_through_stabilization, "dense"),
    (NumericalSemigroup.from_generators([10007, 10009]), lambda S: hilbert_function(S, 3), "dense"),
], ids=["asd4", "asd16", "4,6,7", "10007,10009"])
def test_hilbert_route_follows_the_cost_estimate(monkeypatch, S, call, route):
    # the checker runs where its frontier gathers are cheaper than the oracle's dense levels
    routes = []
    oracle = numsgps.hilbert.hilbert_by_set_construction
    monkeypatch.setattr(numsgps.hilbert, "hilbert_by_set_construction",
                        lambda S, n: routes.append("dense") or oracle(S, n))
    monkeypatch.setattr(numsgps.hilbert, "_frontier_checked",
                        lambda S, n: routes.append("frontier") or _frontier_checked(S, n))
    call(S)
    assert routes == [route]
    _walk.cache_clear()


def test_integer_parameters_of_the_hilbert_calls():
    S = NumericalSemigroup.from_generators([4, 6, 7])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        hilbert_function(S, 2.0)
    with pytest.raises(TypeError, match="is a bool, not an integer"):
        hilbert_function(S, True)
    with pytest.raises(TypeError, match="is a bool, not an integer"):
        hilbert_through_stabilization(S, True)
    assert hilbert_function(S, np.int64(2)) == hilbert_function(S, 2)


def test_apery_rows_across_gather_blocks(rng, monkeypatch):
    # a few cells per block: each level spans many blocks, and a class kept
    # from two frontier classes is kept from two different blocks
    monkeypatch.setattr(numsgps.hilbert, "_GATHER_CELLS", 3)
    cases = [NumericalSemigroup.from_generators(g) for g in ([1], [2, 3], [5, 7, 9, 11])]
    cases += [construct_asd(4).semigroup]
    cases += [random_semigroup(rng, max_mult=12) for _ in range(80)]
    for S in cases:
        _assert_rows_match_dense(S)


@pytest.mark.parametrize("b,dtype", [
    # the walk's bound is max(W_0) = 2b: D_k lies in [0, 2b] and D_k - g in [-b, 2b]
    (10919, np.int16),  # 2b = 21838
    (10921, np.int16),  # 2b = 21842
    (16382, np.int16),  # 2b = 32764 stays under 2**15 - 1
    (16384, np.int32),  # 2b = 32768: just over
    (715827878, np.int32),  # 2b = 1431655756
    (715827880, np.int32),  # 2b = 1431655760
    (1073741822, np.int32),  # 2b = 2**31 - 4 stays under 2**31 - 1
    (1073741824, np.int64),  # 2b = 2**31: just over
    (1100000000, np.int64),  # W_0 holds 2b > 2**31: int32 would wrap
])
def test_rows_of_two_generators_across_the_int32_limit(monkeypatch, b, dtype):
    chosen = record_narrow(monkeypatch, numsgps.hilbert)
    S = NumericalSemigroup.from_generators([3, b])
    _assert_rows_match_dense(S)
    assert chosen == [dtype]
    assert next(_levels(S))[0].dtype == dtype
    # the offset rows stay inside the walk: its counts and orders leave as int and int64
    counts, apery_orders = _walk(S, None)
    assert all(type(h) is int for h in counts) and apery_orders.dtype == np.int64
    assert order_table(S, 10).dtype == np.int64
    _walk.cache_clear()
    # the oracle runs its dense rows near 2**31 too; H(k) = min(k + 1, 3)
    H = hilbert_through_stabilization(S, 4)
    assert H == HilbertFunction(values=(1, 2, 3, 3, 3), stable_from=2)


def test_int64_kernels_agree_with_narrowed(rng, monkeypatch):
    cases = [random_semigroup(rng, max_mult=12) for _ in range(50)]
    cases += [construct_asd(ell).semigroup for ell in range(4, 20) if not is_excluded_level(ell)]
    report = gorenstein_witness(4, 3)
    cases += [step.semigroup for step in report.chain] + [report.final]
    # the walk narrows at max(W_0), which is 2b on <3, b>: both sides of the int16 margin
    cases += [NumericalSemigroup.from_generators(g)
              for g in ([3, 16382], [3, 16384], [7, 10009, 12011])]

    def kernels(S):
        _walk.cache_clear()
        pseudo_frobenius.cache_clear()
        K, M = standard_canonical_ideal(S), maximal_ideal(S)
        return ([row.tolist() for row in walk_rows(S)], hilbert_through_stabilization(S),
                _min_plus(S.w, S.min_gens).tolist(), _min_plus(-S.w, S.min_gens).tolist(),
                ideal_sum(M, K).w.tolist(), K.minimal_generators(), pseudo_frobenius(S),
                is_almost_symmetric(S))

    walk_chosen = record_narrow(monkeypatch, numsgps.hilbert)
    chosen = record_narrow(monkeypatch, numsgps.core)
    narrowed = [kernels(S) for S in cases]
    assert {np.int16, np.int32} <= set(chosen)
    assert {np.int16, np.int32} <= set(walk_chosen)
    for module in (numsgps.core, numsgps.hilbert):
        monkeypatch.setattr(module, "_narrow", lambda lo, hi: np.int64)
    assert [kernels(S) for S in cases] == narrowed
    _walk.cache_clear()
    pseudo_frobenius.cache_clear()


def test_two_large_generators_hilbert_in_bounded_memory():
    # <10007, 10009> has about 10^4 Apery rows of 10^4 entries each: 800 MB if stacked
    proc = run_capped("""
        from numsgps import NumericalSemigroup, hilbert_function
        S = NumericalSemigroup.from_generators([10007, 10009])
        print(hilbert_function(S, 3).values)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(1, 2, 3, 4)"


def test_two_primes_near_30000_hilbert_under_256_mb():
    # c is about 9 * 10^8; the interpreter with numpy needs about 128 MB of address space,
    # and the oracle's rows of e = 30011 entries fit beside it
    proc = run_capped_cli(["hilbert", "30011,30013", "--hmax", "3"], cap=256 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("H = [1, 2, 3, 4]\n")


@pytest.mark.parametrize("h_max", [2, 3])
def test_hilbert_at_the_multiplicity_limit_under_896_mib(h_max):
    # e = 2**24 - 3: S.w is 128 MiB, then the walk adds about 34.6 bytes a class and the oracle 32
    proc = run_capped_cli(["hilbert", "16777213,16777215", "--hmax", str(h_max)], cap=896 << 20)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[0] == f"H = {list(range(1, h_max + 2))}"


@pytest.mark.parametrize("h_max", [2, 3])
def test_hilbert_path_peak_bytes_per_class(h_max):
    # on top of S.w: the walk holds D, the mask, one frontier and the lowered entries
    # (25 bytes a class in int64) and the oracle the kernel's copy of v_j, its spare row and
    # one row (24)
    S = NumericalSemigroup.from_generators([2**20 - 3, 2**20 - 1])
    with traced_memory(_walk) as mem:  # no walk cached
        hilbert_function(S, h_max)
    assert mem.peak / S.multiplicity <= 36
    with traced_memory(_walk) as mem:
        hilbert_by_set_construction(S, h_max)
    assert mem.peak / S.multiplicity <= 33


@pytest.mark.parametrize("gens", [
    [8191, 2**40 - 1],  # W_0 sums to about 2**65
    # W_0 = {j g : j < e} sums to 2**63 - 8, so the int64 sums of W_0 and W_1 straddle the wrap
    [4681, 842044858270],
])
def test_set_construction_oracle_row_sums_wrap_exactly(gens):
    # the row sums wrap mod 2**64 in int64, and their differences, e H(k) < 2**63, are
    # read mod 2**64
    S = NumericalSemigroup.from_generators(gens)
    assert int(S.w.astype(object).sum()) >= 2**63 - 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hilbert_by_set_construction(S, 3) == [1, 2, 3, 4]


def test_two_large_generators_layers_in_bounded_memory():
    # c is about 10^8: an order table over [0, c + 5e) would take 800 MB, and two shifted copies
    proc = run_capped_cli(["hilbert", "10007,10009", "--hmax", "3", "--layers"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("H = [1, 2, 3, 4]\n")
    assert "C_3 = [" in proc.stdout and "D_3 = [" in proc.stdout


@given(semigroup_gens(), st.integers(min_value=0, max_value=30))
@example([1], 2)
@example([2, 3], 3)
# D_3 = {23}, one e above the Apery element 18: 23 has order 2, 23 + 5 = 4 * 7 order 4
@example([5, 7, 18], 1)
# D_3 splits over the landing orders 4 and 5; random small semigroups rarely do
@example(list(fixture_semigroup("ex3_9_nonproper").min_gens), 1)
# k_max = 2, and D_2 lands at order 4 = k_max + 2: a (k, t) key of base k_max + 2 collides
@example([5, 6, 19], 0)
# k_max = 167 = R + 2: the walk runs in int16, and a D-type run end W_{k-1} = 35588 does not fit
@example([165, 217, 486], 165)
@settings(max_examples=50, deadline=None)
def test_layer_sets_match_brute(gens, extra):
    S = NumericalSemigroup.from_generators(gens)
    # k_max from 2 to e + 3, past the reduction index (at most e)
    k_max = 2 + extra % (S.multiplicity + 2)
    assert layer_sets(S, k_max) == brute_layer_sets(S.min_gens, k_max)


def test_layer_sets_many_levels_in_bounded_memory():
    # the run ends are grouped once, so 10^5 mostly empty levels cost no scan of their own
    proc = run_capped_cli(["hilbert", "4,5", "--hmax", "100000", "--layers"])
    assert proc.returncode == 0, proc.stderr
    assert "C_100000 = [" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["hilbert", "4,5", "--hmax", "100000000"],
    ["duplicate", "4,5", "--ideal", "maximal", "--b", "5", "--hmax", "50000000"],
    # 101 * 2000001 layer grid cells
    ["hilbert", "101,103", "--hmax", "2000000", "--layers"],
])
def test_requests_past_the_listing_limit_fail_fast(argv):
    proc = run_capped_cli(argv)
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the supported" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_large_hmax_pays_only_for_levels_through_stabilization():
    proc = run_capped_cli(["hilbert", "4,5", "--hmax", "3000000"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "H = [1, 2, 3, 4, ->]\ndecrease levels: []\n"


def test_order_table_reads_no_row_past_its_bound(monkeypatch):
    # W_k >= k e, so [0, 3000) needs W_0, W_1, W_2 of the 1010 rows of <1009, 1013>
    read = []
    levels = numsgps.hilbert._levels

    def counted(S):
        for level in levels(S):
            read.append(1)
            yield level

    monkeypatch.setattr(numsgps.hilbert, "_levels", counted)
    S = NumericalSemigroup.from_generators([1009, 1013])
    got = order_table(S, 3000)
    assert len(read) == 3
    want = brute_orders(S.min_gens, 3000)
    assert {s: int(got[s]) for s in range(3000) if got[s] >= 0} == want
    assert all(got[s] == -1 for s in range(3000) if s not in want)


def test_layer_sets_read_only_the_levels_they_need(monkeypatch):
    # W_0..W_4 of 10009: past level k_max + 1 = 4 no class that last rose at level 2 or 3 stays,
    # and the certificate's Apery strata are counted in the same pass, with no walk to W_R
    S = NumericalSemigroup.from_generators([10007, 10009])
    read = _count_rows(monkeypatch)
    layers = layer_sets(S, 3)
    assert len(read) == 5
    assert layers.c_sets == {2: (20018,), 3: (30027,)}


def test_layer_sets_cli_reads_no_level_past_it_needs():
    # R = 100003: the listings need W_0..W_3, and the Apery strata come from the same pass
    proc = run_capped_cli(["hilbert", "100003,100005", "--hmax", "2", "--layers"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("H = [1, 2, 3]\n")
    assert "C_2 = [200010]\n" in proc.stdout


def test_layer_sets_cli_over_a_thousand_levels():
    # e = 4001 and k_max = 1000: about a thousand levels of listings, pinned by their sha256
    proc = run_capped_cli(["hilbert", "4001,4003", "--hmax", "1000", "--layers"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "ea7b00f4039acc29492ed36cb329fb6e4633c1601c9b78dec37c0b22a23a82a1")


def test_layer_sets_memory_independent_of_conductor():
    # c is about 10^6: one int64 table over [0, c + 6e) alone is 8 MB
    S = NumericalSemigroup.from_generators([1009, 1013])
    with traced_memory() as mem:
        layers = layer_sets(S, 4)
    assert mem.peak < 4 << 20
    assert layers.c_sets[2] == (2026,)


def test_cross_check_fires_under_python_O():
    proc = _exit_under_python_O(
        "numsgps.hilbert.hilbert_by_set_construction = lambda S, h_max: [0] * (h_max + 1)",
        ["hilbert", "4,6,7", "--hmax", "5"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "Hilbert values disagree" in proc.stderr


def test_layer_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        # the fourth grouping in layer_sets is C_k's decomposition: drop it
        "grouped, calls = numsgps.hilbert._grouped, []\n"
        "def dropped(keys, values):\n"
        "    calls.append(1)\n"
        "    return {} if len(calls) == 4 else grouped(keys, values)\n"
        "numsgps.hilbert._grouped = dropped",
        ["hilbert", "4,6,7", "--hmax", "5", "--layers"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "does not match its decomposition" in proc.stderr


def test_layer_overlap_certificate_fires(monkeypatch):
    grouped, calls = numsgps.hilbert._grouped, []

    def doubled(keys, values):
        # the fourth grouping in layer_sets is C_k's decomposition: list each piece twice
        calls.append(1)
        groups = grouped(keys, values)
        return {k: v + v for k, v in groups.items()} if len(calls) == 4 else groups

    monkeypatch.setattr(numsgps.hilbert, "_grouped", doubled)
    with pytest.raises(AssertionError, match="C_2 pieces overlap"):
        layer_sets(NumericalSemigroup.from_generators([4, 6, 7]), 5)


def test_witness_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        "numsgps.duplication.is_symmetric = lambda S: False",
        ["witness", "--level", "4", "--drop", "1"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "witness output must be symmetric" in proc.stderr


def test_apery_walk_cached_and_oracle_per_call(monkeypatch):
    oracle_calls = []
    oracle = numsgps.hilbert.hilbert_by_set_construction
    monkeypatch.setattr(numsgps.hilbert, "hilbert_by_set_construction",
                        lambda S, h_max: oracle_calls.append(h_max) or oracle(S, h_max))
    S = NumericalSemigroup.from_generators([5, 7, 9, 11])
    hilbert_through_stabilization(S, 4)
    hits = _walk.cache_info().hits
    ap = apery_table(S)
    assert _walk.cache_info().hits == hits + 1
    # the walk is shared, the oracle cross-check still runs on every Hilbert call
    hilbert_through_stabilization(S, 4)
    assert len(oracle_calls) == 2
    assert ap == apery_table(NumericalSemigroup.from_generators([5, 7, 9, 11]))


def _count_rows(monkeypatch) -> list[int]:
    """Start every walk afresh and record each level (D_k, Z_k) that ``_levels`` yields."""
    read = []
    levels = numsgps.hilbert._levels

    def counted(S):
        for level in levels(S):
            read.append(1)
            yield level

    monkeypatch.setattr(numsgps.hilbert, "_levels", counted)
    _walk.cache_clear()
    return read


def test_element_order_stops_at_the_first_row_above_s(monkeypatch):
    # 8891 is a minimal generator, of order 1: W_2[8891 mod 100] > 8891 ends the walk at W_2,
    # though s // e = 88
    S = NumericalSemigroup.from_generators([100, 101, 8891])
    read = _count_rows(monkeypatch)
    assert element_order(S, 8891) == 1
    assert len(read) == 3
    # 12345 lies past W_R, whose entries stay below 10100, so it reads all R + 1 rows
    R = len(_walk(S, None)[0])
    read.clear()
    assert element_order(S, 12345) == brute_orders(S.min_gens, 12346)[12345]
    assert len(read) == R + 1


def test_bounded_hilbert_call_reads_only_its_rows(monkeypatch):
    # H(0..3) needs W_0..W_4 of the 30012 rows; H(h) = h + 1 for h < 30011 on <30011, 30013>
    read = _count_rows(monkeypatch)
    H = hilbert_function(NumericalSemigroup.from_generators([30011, 30013]), 3)
    assert H == HilbertFunction(values=(1, 2, 3, 4), stable_from=None)
    assert len(read) == 5
    with pytest.raises(ValueError, match="exceeds the supported range 2\\*\\*22"):
        hilbert_function(NumericalSemigroup.from_generators([4, 5]), (1 << 22) + 1)
    assert len(read) == 5


def test_walk_reads_rows_per_level_count_once(monkeypatch):
    # R = 3 on <5, 7, 9, 11>: W_0..W_3 are all the rows there are
    read = _count_rows(monkeypatch)
    S = NumericalSemigroup.from_generators([5, 7, 9, 11])
    assert hilbert_function(S, 1).stable_from is None
    assert len(read) == 3
    assert hilbert_function(S, 1).stable_from is None
    assert len(read) == 3
    # the stabilized call and the Apery table share the full walk
    assert hilbert_through_stabilization(S).stable_from == 2
    apery_table(S)
    assert len(read) == 3 + 4
    # a new level count walks afresh from W_0
    assert hilbert_function(S, 2).stable_from == 2
    assert len(read) == 3 + 4 + 4


def test_interrupted_walk_is_walked_afresh(monkeypatch):
    levels = numsgps.hilbert._levels

    def interrupted(S):
        yield from islice(levels(S), 2)
        raise KeyboardInterrupt

    S = NumericalSemigroup.from_generators([5, 7, 9, 11])
    _walk.cache_clear()
    monkeypatch.setattr(numsgps.hilbert, "_levels", interrupted)
    with pytest.raises(KeyboardInterrupt):
        hilbert_through_stabilization(S)
    monkeypatch.setattr(numsgps.hilbert, "_levels", levels)
    assert hilbert_through_stabilization(S).values == tuple(brute_hilbert(S.min_gens, 2))


def test_interrupted_walk_keeps_other_cached_walks(monkeypatch):
    read = _count_rows(monkeypatch)
    counted = numsgps.hilbert._levels
    S, T = (NumericalSemigroup.from_generators(g) for g in ([5, 7, 9, 11], [4, 6, 7]))
    hilbert_through_stabilization(T)

    def interrupted(U):
        yield from islice(counted(U), 2)
        raise KeyboardInterrupt

    monkeypatch.setattr(numsgps.hilbert, "_levels", interrupted)
    with pytest.raises(KeyboardInterrupt):
        hilbert_through_stabilization(S)
    monkeypatch.setattr(numsgps.hilbert, "_levels", counted)
    before, hits = len(read), _walk.cache_info().hits
    apery_table(T)
    assert (len(read), _walk.cache_info().hits) == (before, hits + 1)


def test_cached_walk_cannot_be_written():
    counts, apery_orders = _walk(NumericalSemigroup.from_generators([5, 7, 9, 11]), None)
    with pytest.raises(ValueError, match="read-only"):
        apery_orders[1] = 0
    with pytest.raises(TypeError):
        counts[0] = 0
    _walk.cache_clear()


def test_cached_walks_retain_no_row_buffers():
    # a full cache of bounded walks holds counts and orders, O(e) each, and no
    # suspended row generator with its gather blocks
    _walk.cache_clear()
    with traced_memory() as mem:
        for k in range(64):
            hilbert_function(NumericalSemigroup.from_generators([7, 8 + 7 * k, 9 + 7 * k]), 1)
    assert _walk.cache_info().currsize == 64
    assert mem.retained < 2 << 20
    _walk.cache_clear()


def test_bounded_walks_keep_no_apery_orders():
    # only apery_table reads the orders, and it asks the full walk; a bounded walk
    # keeps its counts alone, not an O(e) vector per cache entry
    candidates = range(10007, 11000, 2)
    primes = [n for n in candidates if all(n % d for d in range(3, math.isqrt(n) + 1, 2))][:65]
    semigroups = [NumericalSemigroup.from_generators(pq) for pq in zip(primes, primes[1:])]
    _walk.cache_clear()
    with traced_memory() as mem:
        for S in semigroups:
            hilbert_function(S, 3)
    assert _walk.cache_info().currsize == 64
    assert _walk(semigroups[0], 4)[1] is None
    assert mem.retained < 1 << 19
    _walk.cache_clear()


def test_oracle_stops_at_stable_from(monkeypatch):
    oracle_levels = []
    oracle = numsgps.hilbert.hilbert_by_set_construction
    monkeypatch.setattr(numsgps.hilbert, "hilbert_by_set_construction",
                        lambda S, h_max: oracle_levels.append(h_max) or oracle(S, h_max))
    H = hilbert_function(NumericalSemigroup.from_generators([4, 5]), 3_000_000)
    assert (H.stable_from, H.h_max, H.value_at(3_000_000)) == (3, 3_000_000, 4)
    assert oracle_levels == [3]
    assert decrease_levels(H) == ()


@given(semigroup_gens(max_gen=12),
       st.lists(st.one_of(st.integers(min_value=1, max_value=14), st.none(),
                          st.just("apery")), min_size=1, max_size=6))
@example([5, 7, 9, 11], [1, 2, "apery", 5])
@example([4, 5], [None, 1, 7])
@settings(max_examples=40, deadline=None)
def test_interleaved_calls_resume_the_walk(gens, calls):
    # an int h is hilbert_function(S, h), None is hilbert_through_stabilization(S)
    S = NumericalSemigroup.from_generators(gens)
    _walk.cache_clear()
    brute = brute_hilbert(S.min_gens, S.multiplicity + 14)
    start = brute.index(S.multiplicity)
    for call in calls:
        if call == "apery":
            _assert_apery_matches_brute(S)
        elif call is None:
            H = hilbert_through_stabilization(S)
            assert (list(H.values), H.stable_from) == (brute[: start + 1], start)
        else:
            H = hilbert_function(S, call)
            assert list(H.values) == brute[: call + 1]
            assert H.stable_from == (start if start <= call else None)


def test_apery_table_json_text():
    # S.w is [0, 16, 7, 18, 9]: the orders and strata are keyed ascending, not by class
    table = apery_table(NumericalSemigroup.from_generators([5, 7, 9]))
    assert json.dumps(table.to_json()) == (
        '{"elements": [0, 7, 9, 16, 18], "orders": {"0": 0, "7": 1, "9": 1, "16": 2, "18": 2},'
        ' "strata": {"1": [7, 9], "2": [16, 18]}}'
    )


def test_stable_value_is_none_short_of_stabilization():
    S = NumericalSemigroup.from_generators([4, 5])  # H = 1, 2, 3, 4, 4, ...
    assert hilbert_function(S, 2).stable_value is None
    assert hilbert_function(S, 3).stable_value == 4
