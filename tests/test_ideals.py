import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numsgps
from numsgps import (
    NumericalSemigroup,
    construct_asd,
    fixture_semigroup,
    hilbert_through_stabilization,
    ideal_generated_by,
    ideal_sum,
    is_almost_symmetric,
    is_canonical_ideal,
    is_symmetric,
    maximal_ideal,
    nari_partition,
    numerical_duplication,
    pseudo_frobenius,
    semigroup_as_ideal,
    semigroup_type,
    standard_canonical_ideal,
)
from numsgps.cli import main
from numsgps.hilbert import _walk
from numsgps.ideals import RelativeIdeal

from conftest import (
    _exit_under_python_O, brute_members, random_semigroup, run_script, traced_memory,
)

S23 = NumericalSemigroup.from_generators([2, 3])


def brute_pf(S):
    if S.conductor == 0:
        return (-1,)
    bound = S.conductor + 2 * S.multiplicity
    return tuple(
        x for x in range(S.conductor)
        if not S.contains(x) and all(S.contains(x + m) for m in range(1, bound) if S.contains(m))
    )


def test_pf_known_values():
    assert pseudo_frobenius(S23) == (1,)
    S4 = construct_asd(4).semigroup
    assert pseudo_frobenius(S4) == tuple([37] + list(range(39, 62)) + [63, 100])
    assert semigroup_type(S4) == 26
    assert semigroup_type(fixture_semigroup("ex3_5_h2")) == 53


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4))
@example([1])
@example([2, 3])
@example([4, 5, 6, 7])  # nu = e
@settings(max_examples=60, deadline=None)
def test_pf_definition_scan(gens):
    # PF read off K(S)'s minimal generators equals the full definition-level scan
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    pf = pseudo_frobenius(S)
    assert pf == brute_pf(S)
    assert S.frobenius == pf[-1]
    assert 2 * S.genus >= S.frobenius + len(pf)  # Nari's inequality


def _brute_pf_and_almost(gens) -> tuple[tuple[int, ...], bool]:
    """PF(S) and M + K(S) = M from their definitions, on the members ``brute_members`` lists.

    x + M lies in S exactly when x + g does for every generator g, which needs x >= -e.
    K(S) = {x : F - x not in S} holds every x > F, and k + g then lies in M, so
    M + K(S) = M, the inclusion M in M + K(S) coming from 0 in K, needs k + g in S
    only for the k in K up to F.
    """
    e, top = min(gens), max(gens)
    members = brute_members(gens, (e + 2) * top)  # F < (e - 1) top, so F + g is covered
    f = max((x for x in range(e * top) if x not in members), default=-1)
    pf = tuple(x for x in range(-e, f + 1)
               if x not in members and all(x + g in members for g in gens))
    below_f = [k for k in range(f + 1) if f - k not in members]
    return pf, all(k + g in members for k in below_f for g in gens)


@given(st.builds(lambda seed, mult: random_semigroup(random.Random(seed), max_mult=mult),
                 st.integers(min_value=0, max_value=2**32), st.sampled_from([5, 9, 16])))
@example(NumericalSemigroup.from_generators([1]))  # PF = {-1}: K = S = the naturals
@example(NumericalSemigroup.from_generators([4, 5, 11]))  # not almost symmetric
@settings(max_examples=60, deadline=None)
def test_pf_and_almost_symmetry_match_brute_force(S):
    # each route runs on empty caches: the definition route and the Nari route each
    # start from the one gather of K(S) + M, which PF reads as well
    pf, almost = _brute_pf_and_almost(S.min_gens)
    for method in ("definition", "nari"):
        _walk.cache_clear()
        pseudo_frobenius.cache_clear()
        assert is_almost_symmetric(S, method) == almost
    pseudo_frobenius.cache_clear()
    assert pseudo_frobenius(S) == pf
    pseudo_frobenius.cache_clear()


def test_pf_certificate_fires_under_python_O():
    # every Apery element taken for a generator of K(<3,5>) gives t = 3 > 2g - F = 1
    proc = _exit_under_python_O(
        "numsgps.ideals.RelativeIdeal.minimal_generators = lambda self: tuple(sorted(self.w.tolist()))",
        ["info", "3,5"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "PF count breaks Nari's inequality 2g >= F + t" in proc.stderr


def test_canonical_symmetric_case():
    assert standard_canonical_ideal(S23) == semigroup_as_ideal(S23)
    assert is_symmetric(S23)


def test_canonical_ideal_generators():
    S = construct_asd(4).semigroup
    K = standard_canonical_ideal(S)
    assert K.minimal_generators() == tuple(sorted(100 - x for x in pseudo_frobenius(S)))
    assert len(K.minimal_generators()) == 26
    # shifting by f+1 lands inside S, for every fixture corpus member
    for name in ("ex2_10_l4", "ex2_13_i", "ex3_9_nonproper", "ex3_11_small"):
        T = fixture_semigroup(name)
        E = standard_canonical_ideal(T).shift(T.frobenius + 1)
        assert E.is_proper()


@given(st.builds(lambda seed, mult: random_semigroup(random.Random(seed), max_mult=mult),
                 st.integers(min_value=0, max_value=2**32), st.sampled_from([5, 9, 16])))
@example(NumericalSemigroup.from_generators([1]))  # e = 1, F = -1: K is the naturals
@example(NumericalSemigroup.from_generators([3, 5]))  # F = 7 = 1 mod e: the second slice is w[2]
@example(NumericalSemigroup.from_generators([3, 4]))  # F = 5 = -1 mod e: the second slice is empty
@settings(max_examples=80, deadline=None)
def test_canonical_ideal_matches_its_definition(S):
    # K(S) = {x : F - x not in S}: the least such x in each class, off the brute members
    e, f = S.multiplicity, S.frobenius
    members = brute_members(S.min_gens, f + 1)
    want = [min(x for x in range(r, f + 2 * e, e) if f - x not in members) for r in range(e)]
    assert standard_canonical_ideal(S).w.tolist() == want


@pytest.mark.parametrize("call, budget", [
    (standard_canonical_ideal, 9),  # K(S) itself, built from two slices of S.w
    (is_symmetric, 10),  # K(S) and the mask of its comparison with S.w
    (pseudo_frobenius, 26),  # K(S), K(S) + M and the min-plus kernel's spare row
])
def test_canonical_route_peak_bytes_per_class(call, budget):
    S = NumericalSemigroup.from_generators([2**20 - 3, 2**20 - 1])
    with traced_memory(pseudo_frobenius) as mem:  # no PF cached
        call(S)
    assert mem.peak / S.multiplicity <= budget


def test_ideal_minimal_generators_basics():
    assert maximal_ideal(S23).minimal_generators() == (2, 3)
    assert semigroup_as_ideal(S23).minimal_generators() == (0,)


def test_shift_round_trip():
    K = standard_canonical_ideal(construct_asd(4).semigroup)
    assert K.shift(0) == K
    assert K.shift(101).shift(-101) == K
    assert K.shift(101).is_proper()


def test_ideal_sum_identities():
    S = fixture_semigroup("ex2_13_i")
    M = maximal_ideal(S)
    K = standard_canonical_ideal(S)
    assert ideal_sum(semigroup_as_ideal(S), M) == M
    assert ideal_sum(M, K) == M  # the almost symmetric condition
    assert ideal_sum(M, K) == ideal_sum(K, M)


def test_double_canonical_plus_b_lands_in_s():
    S = fixture_semigroup("ex3_9_nonproper")
    K = standard_canonical_ideal(S)
    KK = ideal_sum(K, K)
    for b in (79, 81, 85, 87, 93):
        assert S.contains(b)
        assert all(S.contains(x + b) for x in KK.small)
        assert KK.threshold + b >= S.conductor


def test_ideal_sum_assoc_comm(rng):
    for _ in range(10):
        S = random_semigroup(rng)
        E = standard_canonical_ideal(S)
        F = maximal_ideal(S)
        G = ideal_generated_by(S, [S.min_gens[-1], S.min_gens[0] + 1])
        assert ideal_sum(E, F) == ideal_sum(F, E)
        assert ideal_sum(ideal_sum(E, F), G) == ideal_sum(E, ideal_sum(F, G))


def test_ideal_closure_validation():
    with pytest.raises(ValueError):
        RelativeIdeal(S23, [0, 1], 4)  # 1 + 3 = 4 fine but 1 + 2 = 3 < 4 missing
    # closed under +7 and +8 but not under the multiplicity: 0 + 3 is missing
    with pytest.raises(ValueError):
        RelativeIdeal(NumericalSemigroup.from_generators([3, 7, 8]), [0, 7, 8], 10)


def test_non_proper_ideals_are_first_class():
    S = fixture_semigroup("ex3_9_nonproper")
    K = standard_canonical_ideal(S)
    assert not K.is_proper()
    assert K.contains(0)
    assert is_canonical_ideal(K)


def test_is_canonical_ideal():
    S = construct_asd(4).semigroup
    K = standard_canonical_ideal(S)
    assert is_canonical_ideal(K)
    assert is_canonical_ideal(K.shift(101))
    assert not is_canonical_ideal(maximal_ideal(S))


def test_symmetry_flags():
    assert not is_symmetric(construct_asd(4).semigroup)
    assert is_symmetric(NumericalSemigroup.from_generators([3, 7]))
    for S in (S23, construct_asd(4).semigroup):
        if is_symmetric(S):
            assert is_almost_symmetric(S)


def test_symmetry_needs_no_pseudo_frobenius(monkeypatch):
    # the second route is Selmer's 2g = F + 1, not type 1
    def refuse(S):
        raise RuntimeError("pseudo_frobenius called")

    monkeypatch.setattr(numsgps.ideals, "pseudo_frobenius", refuse)
    assert is_symmetric(NumericalSemigroup.from_generators([3, 5]))
    assert not is_symmetric(NumericalSemigroup.from_generators([3, 4, 5]))


def test_symmetry_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        "numsgps.ideals.standard_canonical_ideal = numsgps.ideals.maximal_ideal",
        ["info", "3,5"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "K(S) = S disagrees with Selmer's 2g = F + 1" in proc.stderr


def test_almost_symmetric_fixture_flags():
    assert is_almost_symmetric(fixture_semigroup("ex2_13_i"), "definition")
    assert is_almost_symmetric(fixture_semigroup("ex2_13_i"), "nari")
    assert not is_almost_symmetric(fixture_semigroup("ex3_7_nonas"), "definition")
    assert not is_almost_symmetric(fixture_semigroup("ex3_7_nonas"), "nari")
    S = fixture_semigroup("prop2_4_preamble")
    assert is_almost_symmetric(S, "definition") and is_almost_symmetric(S, "nari")
    assert hilbert_through_stabilization(S, 5).values[:6] == (1, 12, 17, 16, 25, 30)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        is_almost_symmetric(S23, "guess")


def test_nari_partition_construction():
    data = construct_asd(4)
    part = nari_partition(data.semigroup)
    want_a = tuple(sorted({0, data.n2, data.s_family[(0, 5)]} | {k * data.n1 for k in range(1, 5)}))
    assert part.a == want_a
    assert part.a[-1] == data.semigroup.frobenius + 32
    assert set(part.b).isdisjoint(part.a)


def test_nari_partition_two_three():
    part = nari_partition(S23)
    assert part.a == (0, 3) and part.b == ()


def test_nari_partition_sizes(rng):
    for _ in range(20):
        S = random_semigroup(rng)
        part = nari_partition(S)
        assert len(part.b) == semigroup_type(S) - 1
        assert len(part.a) + len(part.b) == S.multiplicity


def test_method_agreement_random(rng):
    for _ in range(120):
        S = random_semigroup(rng, genus_cap=30)
        assert is_almost_symmetric(S, "definition") == is_almost_symmetric(S, "nari")


@given(st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=4))
@example([1])  # Apery set {0}: a = (0,), b = ()
@example([2, 3])  # a = (0, 3), b = ()
@example([3, 4, 5])  # a = (0, 5), b = (4,)
@example([4, 5, 6, 7])  # a = (0, 7), b = (5, 6)
@example([4, 5, 11])  # not almost symmetric
@settings(max_examples=60, deadline=None)
def test_nari_vectors_agree_with_definition(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    almost = is_almost_symmetric(S, "nari")
    assert almost == is_almost_symmetric(S, "definition")
    assert almost == (2 * S.genus == S.frobenius + semigroup_type(S))


def test_almost_symmetry_certificate_fires_under_python_O():
    # a definition route that answers True on the non-almost-symmetric <4,5,11>: the
    # maximal ideal it compares M + K(S) with is replaced by M + K(S) itself
    proc = _exit_under_python_O(
        "import numsgps.ideals as I\nM = I.maximal_ideal\n"
        "I.maximal_ideal = lambda S: I.ideal_sum(M(S), I.standard_canonical_ideal(S))",
        ["info", "4,5,11"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "almost symmetry by definition disagrees with Nari's 2g = F + t" in proc.stderr
    # a Nari route that answers False on the almost symmetric level-4 construction
    proc = _exit_under_python_O(
        "numsgps.ideals.nari_partition = lambda S: numsgps.ideals.NariPartition(a=(0, 1, 5), b=())",
        ["construct", "--ell", "4", "--verify"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "almost symmetry by nari disagrees with Nari's 2g = F + t" in proc.stderr


@given(st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=4),
       st.integers(min_value=-30, max_value=30))
@settings(max_examples=40, deadline=None)
def test_canonical_shift_detection(gens, z):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    K = standard_canonical_ideal(S)
    assert is_canonical_ideal(K.shift(z))
    assert semigroup_type(S) == len(K.minimal_generators())


def _brute_ideal(gens, ideal_gens, lo, hi):
    """The union of the g + S over ``ideal_gens``, restricted to [lo, hi)."""
    out = set()
    for g in ideal_gens:
        out |= {g + s for s in brute_members(gens, hi - g)}
    return {x for x in out if lo <= x < hi}


def _window(X, lo, hi):
    return {x for x in range(lo, hi) if X.contains(x)}


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-10, max_value=25), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-10, max_value=25), min_size=1, max_size=3),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=60, deadline=None)
def test_ideal_operations_match_brute(gens, a_gens, b_gens, z):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    e, c, f = S.multiplicity, S.conductor, S.frobenius
    lo = min(min(a_gens) + min(b_gens), 0) - e - 25
    hi = max(a_gens) + max(b_gens) + c + 2 * e + 25
    members = brute_members(gens, hi + abs(lo))
    E, F = ideal_generated_by(S, a_gens), ideal_generated_by(S, b_gens)
    E_br, F_br = _brute_ideal(gens, a_gens, lo, hi), _brute_ideal(gens, b_gens, lo, hi)
    assert _window(E, lo, hi) == E_br and _window(F, lo, hi) == F_br
    assert set(E.small) | set(range(E.threshold, hi)) == E_br

    # E + F is exact below top: every x + y < top has x, y inside the windows
    top = hi + min(min(a_gens), min(b_gens))
    G = ideal_sum(E, F)
    sum_br = {x + y for x in E_br for y in F_br if x + y < top}
    assert _window(G, lo, top) == sum_br
    assert all(x + g in sum_br for x in sum_br for g in gens if x + g < top)
    assert RelativeIdeal(S, G.small, G.threshold) == G

    nonzero = [m for m in members if m > 0]
    assert E.minimal_generators() == tuple(sorted(
        x for x in E_br if not any(x - m in E_br for m in nonzero if x - m >= lo)))
    assert _window(E.shift(z), lo + 20, hi - 20) == {x + z for x in E_br} & set(range(lo + 20, hi - 20))
    assert E.is_proper() == all(x >= 0 and x in members for x in E_br)

    K = standard_canonical_ideal(S)
    K_br = {x for x in range(lo, hi) if f - x < 0 or f - x not in members}
    assert _window(K, lo, hi) == K_br
    assert K.is_proper() == all(x >= 0 and x in members for x in K_br)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=0, max_value=40))
@example(seed=1, laps=-2, rest=0)  # z a negative multiple of e
@example(seed=2, laps=3, rest=0)  # z a positive multiple of e past e
@example(seed=3, laps=-1, rest=1)  # -e < z < 0
@example(seed=4, laps=0, rest=0)  # z = 0
@settings(max_examples=60, deadline=None)
def test_shift_matches_brute_membership(seed, laps, rest):
    # z + E holds x exactly when E holds x - z, for S and K(S) and any z: negative,
    # a multiple of e, or more than e away from 0
    S = random_semigroup(random.Random(seed))
    e, f = S.multiplicity, S.frobenius
    z = laps * e + rest % e
    lo, hi = min(z, 0) - 2 * e - 5, max(z, 0) + S.conductor + 3 * e + 5
    members = brute_members(S.min_gens, hi - lo + 1)
    K_br = {y for y in range(lo - z, hi - z) if f - y < 0 or f - y not in members}
    for E, brute in ((semigroup_as_ideal(S), members), (standard_canonical_ideal(S), K_br)):
        shifted = E.shift(z)
        assert _window(shifted, lo, hi) == {x for x in range(lo, hi) if x - z in brute}
        assert shifted.min_element == E.min_element + z
        assert shifted.shift(-z) == E


def test_ideal_values_outside_int64_headroom_rejected():
    S = NumericalSemigroup.from_generators([4, 6, 7])
    K = standard_canonical_ideal(S)
    for z in (2**62, -2**62, 2**70):
        with pytest.raises(ValueError, match="supported range"):
            K.shift(z)
        with pytest.raises(ValueError, match="supported range"):
            ideal_generated_by(S, [0, z])
    with pytest.raises(ValueError, match="supported range"):
        RelativeIdeal(S, [0], 2**62)
    with pytest.raises(ValueError, match="supported range"):
        K.shift(2**59).shift(2**59)
    assert main(["duplicate", "4,6,7", "--ideal", f"canonical+{2**63 - 1000}", "--b", "7"]) == 2


def test_vectors_leave_the_kernels_as_int64():
    # the kernels may compute in int32; an int32 w would overflow on shift(2**40)
    S = construct_asd(4).semigroup
    K = standard_canonical_ideal(S)
    E = ideal_sum(maximal_ideal(S), K)
    T = numerical_duplication(S, K.shift(101), 33)
    ideals = [E, ideal_generated_by(S, E.minimal_generators()), K, semigroup_as_ideal(T)]
    assert [I.w.dtype for I in ideals] == [np.int64] * 4
    assert all(type(x) is int for x in E.minimal_generators())
    # the walk keeps its narrow offset rows to itself: counts leave as int, orders as int64
    assert all(type(h) is int for U in (S, T) for h in _walk(U, None)[0])
    assert [_walk(U, None)[1].dtype for U in (S, T)] == [np.int64] * 2
    assert E.shift(2**40).min_element == E.min_element + 2**40


def test_listing_built_per_class_and_guarded(monkeypatch):
    # class 0 holds the 10^5 members below the threshold 10^7, every other class none
    S = NumericalSemigroup.from_generators([100] + [10**7 + r for r in range(1, 100)])
    E = semigroup_as_ideal(S)
    with traced_memory() as mem:
        listing = E.small
    assert listing == tuple(range(0, 10**7, 100))
    assert mem.peak < 16 << 20  # an int64 range over [0, threshold) alone is 80 MB
    monkeypatch.setattr(numsgps.core, "LISTING_LIMIT", len(listing) - 1)
    with pytest.raises(ValueError, match=f"ideal listing of {len(listing)} elements exceeds"):
        E.to_json()


def test_repr_past_listing_limit():
    S = NumericalSemigroup.from_generators([3, 5])
    assert repr(maximal_ideal(S)) == "RelativeIdeal(small=(3, 5, 6), threshold=8)"
    # the canonical ideal of <10007, 10009> has 50070024 members below its threshold
    K = standard_canonical_ideal(NumericalSemigroup.from_generators([10007, 10009]))
    text = repr(K)
    assert text.startswith(f"RelativeIdeal(w=[{K.w[0]}, {K.w[1]}, ")
    assert text.endswith(f"], threshold={K.threshold})")


def test_ideal_constructor_imports_no_masked_arrays():
    # np.unique with no flag imports numpy.ma on its first call, about 6 ms of a first ideal
    proc = run_script("import sys\n"
                      "from numsgps import NumericalSemigroup\n"
                      "from numsgps.ideals import RelativeIdeal\n"
                      "RelativeIdeal(NumericalSemigroup.from_generators([4, 5]), [0, 4, 5], 8)\n"
                      "print('numpy.ma' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_nari_partition_json_text():
    # PF(<5, 7, 9>) = {11, 13}: B holds 11 + 5, A the rest of the Apery set
    part = nari_partition(NumericalSemigroup.from_generators([5, 7, 9]))
    assert part.to_json() == {"A": [0, 7, 9, 18], "B": [16]}


def test_ideal_plus_is_the_ideal_sum():
    S = NumericalSemigroup.from_generators([3, 5])
    M, K = maximal_ideal(S), standard_canonical_ideal(S)
    assert M + K == ideal_sum(M, K) == ideal_sum(K, M)
    assert M + M == ideal_generated_by(S, [6, 8, 10])


def test_ideal_equality_with_another_type_is_not_implemented():
    M = maximal_ideal(NumericalSemigroup.from_generators([3, 5]))
    assert M.__eq__(M.w) is NotImplemented
    assert M != M.w.tolist() and M != 3
