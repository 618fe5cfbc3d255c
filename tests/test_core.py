import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numsgps import GcdError, NumericalSemigroup, parse_generators
from numsgps.cli import main

from conftest import brute_members


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
