import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numsgps.core
import numsgps.duplication
import numsgps.hilbert
import numsgps.ideals
from numsgps import (
    BNotInS,
    EvenB,
    ExcludedLevel,
    HilbertFunction,
    IdealSumViolation,
    LevelTooSmall,
    NotStabilized,
    NumericalSemigroup,
    RelativeIdeal,
    construct_asd,
    duplication_chain,
    fixture_semigroup,
    gorenstein_witness,
    hilbert_by_set_construction,
    hilbert_function,
    hilbert_through_stabilization,
    ideal_generated_by,
    is_almost_symmetric,
    is_canonical_ideal,
    is_symmetric,
    maximal_ideal,
    numerical_duplication,
    predicted_duplication_hilbert,
    semigroup_type,
    smallest_odd_element,
    standard_canonical_ideal,
)

from numsgps.construction import is_excluded_level
from numsgps.core import CertificationError, _certify_generators
from numsgps.duplication import _canonical_duplication, _chain, _doubled_hilbert, _duplicate
from numsgps.hilbert import _second_power

from conftest import _exit_under_python_O, brute_members, random_semigroup

EXPECTED_53 = (64, 66, 76, 138, 144, 146, 148, 150, 154, 156, 158, 160, 162, 164,
               166, 168, 170, 172, 174, 176, 178, 180, 182, 184, 186, 188, 190,
               235, 309, 313, 315, 317, 319, 321, 323, 325, 327, 329, 331, 333,
               335, 337, 339, 341, 343, 345, 347, 349, 351, 353, 355, 357, 361)


def test_duplicate_two_three_maximal():
    S = NumericalSemigroup.from_generators([2, 3])
    T = numerical_duplication(S, maximal_ideal(S), 3)
    assert T.min_gens == (4, 6, 7, 9)


def test_validation_errors():
    S = NumericalSemigroup.from_generators([2, 3])
    with pytest.raises(EvenB):
        numerical_duplication(S, maximal_ideal(S), 4)
    with pytest.raises(BNotInS):
        numerical_duplication(S, maximal_ideal(S), 1)
    T = NumericalSemigroup.from_generators([3, 7, 8])
    loose = ideal_generated_by(T, [1])  # 1+1+3 = 5 is not in T
    with pytest.raises(IdealSumViolation):
        numerical_duplication(T, loose, 3)
    other = NumericalSemigroup.from_generators([2, 5])
    with pytest.raises(ValueError):
        numerical_duplication(S, maximal_ideal(other), 3)


def test_parity_structure(rng):
    for _ in range(10):
        S = random_semigroup(rng)
        E = standard_canonical_ideal(S).shift(S.frobenius + 1)
        b = smallest_odd_element(S)
        T = numerical_duplication(S, E, b)
        for x in range(T.conductor + 2):
            if x % 2 == 0:
                assert T.contains(x) == S.contains(x // 2)
            else:
                assert T.contains(x) == E.contains((x - b) // 2)


def test_the_53_generator_symmetric_duplication():
    S = construct_asd(4).semigroup
    E = standard_canonical_ideal(S).shift(101)
    T = numerical_duplication(S, E, 33)
    assert T.min_gens == EXPECTED_53
    H = hilbert_function(T, 10)
    assert H.values == (1, 53, 54, 54, 53, 53, 56, 59, 61, 63, 64)
    assert is_symmetric(T)


def test_prediction_matches_direct_for_proper_canonical():
    S = construct_asd(4).semigroup
    HS = hilbert_through_stabilization(S, 10)
    pred = predicted_duplication_hilbert(HS, semigroup_type(S), 10)
    assert pred.values == (1, 53, 54, 54, 53, 53, 56, 59, 61, 63, 64)
    E = standard_canonical_ideal(S).shift(101)
    direct = hilbert_function(numerical_duplication(S, E, 33), 10)
    assert direct.values == pred.values


def test_prediction_type53_seed():
    S = fixture_semigroup("ex3_5_h2")
    H = hilbert_through_stabilization(S, 7)
    pred = predicted_duplication_hilbert(H, 53, 7)
    assert pred.values == (1, 107, 106, 102, 104, 118, 132, 136)
    assert pred.values[0] == 1
    assert pred.stable_from == 7


def test_prediction_stable_from_matches_direct():
    S = fixture_semigroup("ex2_13_ii")
    T = numerical_duplication(S, standard_canonical_ideal(S).shift(S.frobenius + 1), 33)
    for h_max in range(1, 11):
        HS = hilbert_through_stabilization(S, max(h_max, 2))
        pred = predicted_duplication_hilbert(HS, semigroup_type(S), h_max)
        assert pred.stable_from == hilbert_function(T, h_max).stable_from, h_max


def test_prediction_requires_enough_source_values():
    H = HilbertFunction(values=(1, 5, 6), stable_from=None)
    with pytest.raises(NotStabilized):
        predicted_duplication_hilbert(H, 4, 6)


def test_prediction_independent_of_b():
    S = fixture_semigroup("ex2_13_ii")
    HS = hilbert_through_stabilization(S, 8)
    pred = predicted_duplication_hilbert(HS, semigroup_type(S), 8)
    E = standard_canonical_ideal(S).shift(S.frobenius + 1)
    odds = [b for b in S.elements_up_to(S.conductor + 2) if b % 2 == 1][:3]
    for b in odds:
        T = numerical_duplication(S, E, b)
        assert hilbert_function(T, 8).values == pred.values


def test_non_proper_duplications():
    S = fixture_semigroup("ex3_9_nonproper")
    K = standard_canonical_ideal(S)
    assert not K.is_proper()
    expected = {
        79: (1, 44, 41, 40, 52, 58, 60),
        93: (1, 47, 49, 48, 48, 50, 55, 58, 60),
    }
    for b, values in expected.items():
        T = numerical_duplication(S, K, b)
        assert hilbert_function(T, len(values) - 1).values == values
        assert is_symmetric(T)
    # the prediction is wrong here on purpose: the ideal is not proper
    HS = hilbert_through_stabilization(S, 6)
    pred = predicted_duplication_hilbert(HS, semigroup_type(S), 6)
    direct = hilbert_function(numerical_duplication(S, K, 79), 6)
    assert pred.values != direct.values


def test_shifted_canonical_from_non_almost_symmetric():
    S = fixture_semigroup("ex3_7_nonas")
    assert not is_almost_symmetric(S)
    E = standard_canonical_ideal(S).shift(66)
    assert E.is_proper()
    T = numerical_duplication(S, E, 33)
    assert is_symmetric(T)
    assert hilbert_function(T, 8).values == (1, 54, 55, 55, 54, 57, 58, 59, 60)


def test_small_multiplicity_duplication():
    S = fixture_semigroup("ex3_11_small")
    T = numerical_duplication(S, standard_canonical_ideal(S), 49)
    assert T.multiplicity == 38
    assert T.min_gens == (38, 42, 48, 49, 94, 100, 101, 102, 104, 105, 106, 107,
                          108, 109, 110, 111, 112, 113, 115, 116, 117, 119, 120,
                          121, 123, 127)
    assert hilbert_function(T, 5).values == (1, 26, 25, 25, 32, 38)


def test_symmetry_criterion_via_canonical_ideals(rng):
    S = fixture_semigroup("ex2_13_ii")
    cases = [
        (standard_canonical_ideal(S), True),
        (standard_canonical_ideal(S).shift(S.frobenius + 1), True),
        (maximal_ideal(S), False),
    ]
    for E, want in cases:
        assert is_canonical_ideal(E) == want
        T = numerical_duplication(S, E, smallest_odd_element(S))
        assert is_symmetric(T) == want
    for _ in range(8):
        R = random_semigroup(rng)
        E = standard_canonical_ideal(R).shift(R.frobenius + 1)
        T = numerical_duplication(R, E, smallest_odd_element(R))
        assert is_symmetric(T)


def test_smallest_odd_element():
    assert smallest_odd_element(NumericalSemigroup.from_generators([2, 3])) == 3
    assert smallest_odd_element(NumericalSemigroup.from_generators([4, 6, 9])) == 9
    assert smallest_odd_element(fixture_semigroup("ex2_10_l5")) == 53


def test_chain_zero_steps():
    S = fixture_semigroup("ex2_10_l5")
    assert duplication_chain(S, 0) == [S]
    with pytest.raises(ValueError):
        duplication_chain(NumericalSemigroup.from_generators([1]), 1)
    with pytest.raises(ValueError):
        duplication_chain(S, -1)


def test_chain_first_step():
    chain = duplication_chain(fixture_semigroup("ex3_9_chain_seed"), 1)
    T1 = chain[1]
    assert semigroup_type(T1) == 75
    assert is_almost_symmetric(T1)
    assert hilbert_function(T1, 6).values == (1, 76, 76, 76, 76, 74, 88)


def test_chain_law(rng):
    # doubled values and type 2t+1 per step, almost symmetry preserved
    seeds = [fixture_semigroup("ex2_13_ii"), random_semigroup(rng, max_mult=6)]
    for S0 in seeds:
        H0 = hilbert_through_stabilization(S0, 6)
        t0 = semigroup_type(S0)
        as0 = is_almost_symmetric(S0)
        chain = duplication_chain(S0, 2)
        for i, Si in enumerate(chain):
            Hi = hilbert_through_stabilization(Si, 6)
            assert Hi.values[0] == 1
            assert all(Hi.values[h] == (2 ** i) * H0.value_at(h) for h in range(1, 7))
            assert semigroup_type(Si) == (2 ** i) * t0 + 2 ** i - 1
            if as0:
                assert is_almost_symmetric(Si)


def test_tower_of_proper_canonical_duplications():
    S = fixture_semigroup("ex3_tower_seed")
    expected = [
        (1, 51, 52, 51, 49, 51, 55, 57, 59, 60),
        (1, 52, 103, 103, 100, 100, 106, 112, 116, 119, 120),
        (1, 53, 155, 206, 203, 200, 206, 218, 228, 235, 239, 240),
    ]
    current = S
    for values in expected:
        E = standard_canonical_ideal(current).shift(current.frobenius + 1)
        current = numerical_duplication(current, E, smallest_odd_element(current))
        assert is_symmetric(current)
        H = hilbert_function(current, len(values) - 1)
        assert H.values == values


def test_witness_level_4_drop_1():
    report = gorenstein_witness(4, 1)
    assert report.seed_name == "construction(ell=4)"
    assert len(report.chain) == 2  # seed + one maximal-ideal duplication
    assert report.achieved_drop == 2
    assert is_symmetric(report.final)
    direct = hilbert_function(report.final, 5)
    assert direct.values[3] - direct.values[4] == 2


def test_witness_level_2_drop_rule():
    report = gorenstein_witness(2, 1)
    assert report.seed_name == "ex3_5_h2"
    assert report.achieved_drop == 3  # 2**(i+1) - 1 with i = 1
    assert report.final_hilbert.values[1] - report.final_hilbert.values[2] == 3


def test_witness_level_3_uses_stored_seed():
    report = gorenstein_witness(3, 1)
    assert report.seed_name == "ex2_13_ii"
    assert report.achieved_drop > 1


def test_witness_errors():
    with pytest.raises(ExcludedLevel):
        gorenstein_witness(14, 1)
    with pytest.raises(ExcludedLevel):
        gorenstein_witness(35, 2)
    with pytest.raises(LevelTooSmall):
        gorenstein_witness(1, 1)
    with pytest.raises(ValueError):
        gorenstein_witness(4, 0)


def test_witness_size_guard_matches_the_final_multiplicity(monkeypatch):
    # drop 3 takes i0 = 2 chain steps, so the final multiplicity is 32 * 2**3
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 256)
    assert gorenstein_witness(4, 3).final.multiplicity == 256
    monkeypatch.setattr(numsgps.duplication, "_chain", None)  # refused before any chain step
    with pytest.raises(ValueError, match="multiplicity 512 exceeds the supported range 2"):
        gorenstein_witness(4, 4)


def test_witness_report_json():
    report = gorenstein_witness(4, 1)
    data = report.to_json()
    assert data["achieved_drop"] == 2
    assert "min_gens" not in data["final"]
    rich = report.to_json(include_generators=True)
    assert rich["final"]["min_gens"] == list(report.final.min_gens)
    assert all("min_gens" in step for step in rich["chain"])


@pytest.mark.parametrize("level, drop", [(4, 1.5), (4, True), (4.0, 1)])
def test_witness_rejects_a_level_or_drop_that_is_no_integer(level, drop):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer|is a bool"):
        gorenstein_witness(level, drop)


def test_witness_runs_the_oracle_on_the_seed_only(monkeypatch):
    oracle_calls = []
    oracle = numsgps.hilbert.hilbert_by_set_construction
    monkeypatch.setattr(numsgps.hilbert, "hilbert_by_set_construction",
                        lambda S, h_max: oracle_calls.append(S) or oracle(S, h_max))
    report = gorenstein_witness(4, 3)
    assert len(report.chain) == 3
    assert oracle_calls == [report.chain[0].semigroup]


def test_witness_routes_agree_with_the_oracle():
    # each chain step and final is certified by its parent's H through a
    # duplication formula; the oracle on the same semigroup must agree
    checked = 0
    for level in range(2, 14):
        if is_excluded_level(level):
            continue
        for drop in (1, 2, 3):
            report = gorenstein_witness(level, drop)
            reported = [(step.semigroup, step.hilbert) for step in report.chain[1:]]
            for S, H in reported + [(report.final, report.final_hilbert)]:
                assert list(H.values) == hilbert_by_set_construction(S, H.h_max)
                assert H.stable_from == H.values.index(S.multiplicity)
                checked += 1
    assert checked == 95


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_doubling_formula_matches_maximal_duplication(rnd):
    S = random_semigroup(rnd, max_mult=10)
    odds = [x for x in S.elements_up_to(S.conductor + 2 * S.multiplicity) if x % 2]
    for b in {smallest_odd_element(S), rnd.choice(odds)}:
        T = numerical_duplication(S, maximal_ideal(S), b)
        H_T = hilbert_through_stabilization(T)
        H_S = hilbert_through_stabilization(S, H_T.h_max)
        assert _doubled_hilbert(H_S, H_T.h_max) == H_T
        assert _doubled_hilbert(H_S, H_T.stable_from - 1).stable_from is None


def test_chain_certificate_names_its_step(monkeypatch):
    doubled = numsgps.duplication._doubled_hilbert

    def off_by_one_at_1(H, h_max):
        D = doubled(H, h_max)
        return HilbertFunction(D.values[:1] + (D.values[1] + 1,) + D.values[2:], D.stable_from)

    monkeypatch.setattr(numsgps.duplication, "_doubled_hilbert", off_by_one_at_1)
    with pytest.raises(AssertionError, match="duplication-formula Hilbert values disagree "
                                             "at chain step 1"):
        gorenstein_witness(4, 1)


def test_final_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        "predict = numsgps.duplication.predicted_duplication_hilbert\n"
        "def shifted(H, t, h_max):\n"
        "    P = predict(H, t, h_max)\n"
        "    return numsgps.hilbert.HilbertFunction(tuple(v + 1 for v in P.values), P.stable_from)\n"
        "numsgps.duplication.predicted_duplication_hilbert = shifted",
        ["witness", "--level", "4", "--drop", "1"],
    )
    assert proc.returncode == 4, proc.stderr
    assert ("Apery-row and duplication-formula Hilbert values disagree "
            "at the final duplication") in proc.stderr


def test_drop_certificate_fires_under_python_O():
    # without its last duplication the chain reaches a drop of 2, short of the target 3
    proc = _exit_under_python_O(
        "chain = numsgps.duplication._chain\n"
        "numsgps.duplication._chain = lambda S0, steps: tuple(x[:-1] for x in chain(S0, steps))",
        ["witness", "--level", "4", "--drop", "3"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "drop 2 does not exceed the target 3" in proc.stderr


def test_type_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        "pf_type = numsgps.duplication.semigroup_type\n"
        "numsgps.duplication.semigroup_type = lambda S: pf_type(S) + 1",
        ["witness", "--level", "4", "--drop", "3"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "duplication's type 2 t + 1 disagree at chain step 1" in proc.stderr


def test_witness_finds_each_shift_once(monkeypatch):
    calls = []
    odd = numsgps.duplication.smallest_odd_element
    monkeypatch.setattr(numsgps.duplication, "smallest_odd_element",
                        lambda S: calls.append(S) or odd(S))
    report = gorenstein_witness(4, 3)
    semigroups = [step.semigroup for step in report.chain]
    assert calls == semigroups
    assert [step.b for step in report.chain[1:]] + [report.final_b] == [odd(S) for S in semigroups]


def _sums_escape(S, E, b) -> bool:
    """Whether some x + y + b with x, y in E lies outside S, on a window."""
    low, c = E.min_element, S.conductor
    # x + y + b >= c lands in S, so x and y below c - b - low suffice
    members = [x for x in range(low, c - b - low + 1) if E.contains(x)]
    return any(x + y + b < c and not S.contains(x + y + b) for x in members for y in members)


@given(st.randoms(use_true_random=False), st.sampled_from(["maximal", "canonical", "generated"]))
@settings(max_examples=120, deadline=None)
def test_closed_form_matches_generator_rebuild(rnd, kind):
    S = random_semigroup(rnd, max_mult=10)
    e = S.multiplicity
    if kind == "maximal":
        E = maximal_ideal(S)
    elif kind == "canonical":
        E = standard_canonical_ideal(S).shift(rnd.randint(-3, S.frobenius + 3))
    else:
        E = ideal_generated_by(S, [rnd.randint(-6, 3 * e) for _ in range(rnd.randint(1, 4))])
    b = rnd.choice([x for x in S.elements_up_to(S.conductor + 2 * e) if x % 2])
    if _sums_escape(S, E, b):
        with pytest.raises(IdealSumViolation):
            numerical_duplication(S, E, b)
        return
    T = numerical_duplication(S, E, b)
    R = NumericalSemigroup.from_generators(
        [2 * n for n in S.min_gens] + [2 * x + b for x in E.minimal_generators()]
    )
    assert T.min_gens == R.min_gens
    assert np.array_equal(T.w, R.w)


def test_witness_builds_no_duplication_from_generators(monkeypatch):
    build = NumericalSemigroup.from_generators.__func__

    def guarded(cls, gens):
        if sys._getframe(1).f_globals["__name__"] == "numsgps.duplication":
            raise RuntimeError("duplication rebuilt from generators")
        return build(cls, gens)

    monkeypatch.setattr(NumericalSemigroup, "from_generators", classmethod(guarded))
    report = gorenstein_witness(4, 3)
    assert report.achieved_drop > 3
    assert len(report.chain) == 3


def test_duplication_gathers_generators_once(monkeypatch):
    calls = {"minimal_generators": 0, "contains": 0}

    def counted(name):
        method = getattr(RelativeIdeal, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(RelativeIdeal, name, counted(name))
    monkeypatch.setattr(RelativeIdeal, "__contains__", RelativeIdeal.contains)
    S = construct_asd(4).semigroup
    numerical_duplication(S, standard_canonical_ideal(S).shift(101), 33)
    assert calls == {"minimal_generators": 1, "contains": 0}


def test_certificate_rejects_a_dropped_generator():
    S = construct_asd(4).semigroup
    T = numerical_duplication(S, standard_canonical_ideal(S).shift(101), 33)
    _certify_generators(T.min_gens, T.w, "duplication")
    for drop in (0, 1, len(T.min_gens) - 1):
        G = T.min_gens[:drop] + T.min_gens[drop + 1:]
        with pytest.raises(AssertionError, match="do not generate"):
            _certify_generators(G, T.w, "duplication")
    with pytest.raises(AssertionError, match="sum of two others"):
        _certify_generators(T.min_gens + (2 * T.min_gens[0],), T.w, "duplication")


def test_certificate_fires_under_python_O():
    proc = _exit_under_python_O(
        "check = numsgps.duplication._certify_generators\n"
        "numsgps.duplication._certify_generators = lambda G, w, where: check(G[:-1], w, where)",
        ["duplicate", "@ex2_10_l4", "--ideal", "canonical+101", "--b", "33"],
    )
    assert proc.returncode == 4, proc.stderr
    assert "duplication: generators do not generate" in proc.stderr


def test_duplication_size_guards(monkeypatch):
    S = NumericalSemigroup.from_generators([2, 3])
    E = maximal_ideal(S)
    # the duplication is <4, 6, 7, 9>: multiplicity 4, Apery values up to 3 * 9
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 4)
    monkeypatch.setattr(numsgps.core, "APERY_LIMIT", 27)
    assert numerical_duplication(S, E, 3).min_gens == (4, 6, 7, 9)
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 3)
    with pytest.raises(ValueError, match="multiplicity 4 exceeds"):
        numerical_duplication(S, E, 3)
    monkeypatch.setattr(numsgps.core, "MULTIPLICITY_LIMIT", 4)
    monkeypatch.setattr(numsgps.core, "APERY_LIMIT", 26)
    with pytest.raises(ValueError, match="Apery values"):
        numerical_duplication(S, E, 3)
    monkeypatch.setattr(numsgps.core, "APERY_LIMIT", 1 << 59)
    with pytest.raises(ValueError, match="exceeds the supported range 2\\*\\*40"):
        numerical_duplication(S, E, 2**40 + 1)


def _brute_duplication(S, E_members, b, bound) -> set[int]:
    """2S union (2E + b) below ``bound``, from a brute-force member list of S and of E."""
    doubled = {2 * s for s in brute_members(S.min_gens, bound // 2 + 1)}
    return {x for x in doubled | {2 * y + b for y in E_members} if 0 <= x < bound}


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_duplication_from_parent_data_matches_public_route_and_brute_force(rnd):
    S = random_semigroup(rnd, max_mult=8)
    e, f, c = S.multiplicity, S.frobenius, S.conductor
    # past max(2c, 2 thr(E) + b) both sides hold every integer; thr(E) <= 2c for M and K + f + 1
    members = brute_members(S.min_gens, 2 * c + 2)
    M = maximal_ideal(S)
    gens = np.array(S.min_gens, dtype=np.int64)
    for b in [x for x in range(1, c + 2 * e) if x % 2 and S.contains(x)]:
        bound = 4 * c + b + 2
        T = _duplicate(S, M, gens, _second_power(S), b)
        public = numerical_duplication(S, M, b)
        assert (T.min_gens, T.w.tolist()) == (public.min_gens, public.w.tolist())
        assert set(T.elements_up_to(bound)) == _brute_duplication(S, members - {0}, b, bound)
        assert T.conductor <= bound
    b = smallest_odd_element(S)
    bound = 4 * c + b + 2
    T = _canonical_duplication(S, b)
    public = numerical_duplication(S, standard_canonical_ideal(S).shift(f + 1), b)
    assert (T.min_gens, T.w.tolist()) == (public.min_gens, public.w.tolist())
    # K + f + 1 = {y >= f + 1 : 2f + 1 - y not in S}
    canonical = {y for y in range(f + 1, bound) if 2 * f + 1 - y not in members}
    assert set(T.elements_up_to(bound)) == _brute_duplication(S, canonical, b, bound)
    assert T.conductor <= bound


def _brute_minimal_system(G, w) -> bool:
    """Whether G is the minimal generating system of the set X with Apery vector w, by BFS."""
    m = len(w)
    if w.min() < 0:  # X holds a negative integer, <G> does not
        return False
    # with w[0] = 0, m is in X; agreement below max(w) + 1 covers m consecutive members of
    # both sets, so it decides X = <G>
    bound = max(int(w.max()), max(G)) + m + 1
    if brute_members(G, bound) != {x for x in range(bound) if x >= w[x % m]}:
        return False
    return all(g not in brute_members([h for h in G if h != g], g + 1) for g in G)


@given(st.randoms(use_true_random=False), st.sampled_from(["none", "drop", "add", "move"]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_generator_certificate_raises_exactly_when_brute_force_rejects(rnd, kind, duplicate):
    S = random_semigroup(rnd, max_mult=8)
    if duplicate:
        S = numerical_duplication(S, maximal_ideal(S), smallest_odd_element(S))
    G, w = list(S.min_gens), S.w.copy()
    m = len(w)
    if kind == "drop":
        G.pop(rnd.randrange(len(G)))
    elif kind == "add":
        G = sorted(G + [rnd.choice(G) + rnd.choice(G)])
    elif kind == "move" and m > 1:
        w[rnd.randrange(1, m)] += rnd.choice([-m, m])
    if _brute_minimal_system(G, w):
        _certify_generators(tuple(G), w, "perturbed")
    else:
        with pytest.raises(CertificationError, match="^perturbed: "):
            _certify_generators(tuple(G), w, "perturbed")


def _count_min_plus_steps(monkeypatch) -> list[int]:
    """Wrap ``core._min_plus_steps`` by name in every module that could call it; one entry a call."""
    calls = []
    steps = numsgps.core._min_plus_steps

    def counted(v, shifts, n):
        calls.append(len(v))
        return steps(v, shifts, n)

    for module in (numsgps.core, numsgps.duplication, numsgps.ideals):
        monkeypatch.setattr(module, "_min_plus_steps", counted, raising=False)
    return calls


def test_closed_form_builds_gather_only_their_certificate(monkeypatch):
    S = construct_asd(4).semigroup
    T = numerical_duplication(S, maximal_ideal(S), smallest_odd_element(S))
    semigroup_type(T)  # the witness has filled the PF cache of its last chain step
    calls = _count_min_plus_steps(monkeypatch)
    _certify_generators(T.min_gens, T.w, "duplication")
    assert calls == [T.multiplicity]
    # a maximal-ideal chain step reads M's generators and Ap(M + M) off S: only the certificate
    calls.clear()
    assert _chain(S, 1)[0][1] == T
    assert calls == [T.multiplicity]
    # the canonical duplication gathers E + E, then the certificate at twice the multiplicity
    calls.clear()
    b = smallest_odd_element(T)
    final = _canonical_duplication(T, b)
    assert calls == [T.multiplicity, final.multiplicity]
    assert final == numerical_duplication(T, standard_canonical_ideal(T).shift(T.frobenius + 1), b)
