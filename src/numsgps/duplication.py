"""Numerical duplication and the symmetric-witness procedure built on it.

The duplication of a semigroup S along a relative ideal E with an odd member
b of S is the semigroup 2*S union (2*E + b), where 2*X doubles elements (not
the sumset).  It is generated by the doubled minimal generators of S together
with the doubled ideal generators of E shifted by b, and it is symmetric
exactly when E is a canonical ideal.

Duplicating along the maximal ideal doubles every positive Hilbert value and
maps the type t to 2t + 1 while preserving almost symmetry; iterating this
and finishing with one duplication along a proper canonical ideal yields
symmetric semigroups whose Hilbert function drops at a prescribed level by
more than any prescribed amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NumericalSemigroup, SemigroupError, _certify, _members
from .construction import construct_asd, is_excluded_level
from .hilbert import HilbertFunction, hilbert_through_stabilization
from .ideals import (
    RelativeIdeal,
    ideal_sum,
    is_symmetric,
    maximal_ideal,
    semigroup_type,
    standard_canonical_ideal,
)


class EvenB(SemigroupError):
    """The duplication shift b must be odd."""


class BNotInS(SemigroupError):
    """The duplication shift b must belong to the semigroup."""


class IdealSumViolation(SemigroupError):
    """E + E + b escapes S, so the doubled set is not closed under addition."""


class LevelTooSmall(SemigroupError):
    """The witness procedure needs a level of at least 2."""


class ExcludedLevel(SemigroupError):
    """Levels 14+22k and 35+46k are outside the witness procedure's range."""


def _check_double_sum(S: NumericalSemigroup, E: RelativeIdeal, b: int) -> None:
    double = ideal_sum(E, E).shift(b)
    outside = double.w[double.w < S.w]
    if len(outside):
        x = int(outside.min()) - b
        raise IdealSumViolation(f"{x} + {b} lies in E + E + b but outside S")


def numerical_duplication(S: NumericalSemigroup, E: RelativeIdeal, b: int) -> NumericalSemigroup:
    """The duplication of S along E with odd shift b in S.

    E need not be contained in S, but E + E + b must land in S (automatic for
    proper E); otherwise the union fails to be closed and IdealSumViolation
    is raised.  The returned semigroup is checked against the defining union
    class by class mod 2e.
    """
    if b % 2 == 0:
        raise EvenB(f"duplication needs an odd b, got {b}")
    if not S.contains(b):
        raise BNotInS(f"{b} is not an element of the semigroup")
    if E.ambient != S:
        raise ValueError("ideal must live over the semigroup being duplicated")
    _check_double_sum(S, E, b)

    dgens = [2 * n for n in S.min_gens]
    dgens.extend(2 * m + b for m in E.minimal_generators())
    T = NumericalSemigroup.from_generators(dgens)
    _assert_duplication_set(S, E, b, T)
    return T


def _assert_duplication_set(S, E, b, T) -> None:
    """T must equal {2s} union {2x + b} as a set of integers.

    Mod 2e that set has the class minima u = 2 * w_S on the even classes and
    2 * w_E + b on the odd ones; since 2e lies in T, T equals it exactly when
    T contains every u and no u - 2e.
    """
    u = np.concatenate([2 * S.w, 2 * E.w + b])
    below = u - 2 * S.multiplicity
    _certify(_members(T.w, u).all() and not _members(T.w, below).any(),
             "duplication disagrees with its defining set")


def predicted_duplication_hilbert(
    H_source: HilbertFunction, type_source: int, h_max: int
) -> HilbertFunction:
    """[1, nu + t, H(2) + H(1), H(3) + H(2), ...] up to h_max.

    This is the Hilbert function of a duplication along a proper canonical
    ideal when the source is almost symmetric; the caller owns that validity
    contract, since the arithmetic itself is happy to extrapolate for the
    non-proper situations where the true values differ.
    """
    if h_max < 1:
        raise ValueError("h_max must be at least 1")
    values = [1, H_source.value_at(1) + type_source]
    values.extend(
        H_source.value_at(h) + H_source.value_at(h - 1) for h in range(2, h_max + 1)
    )
    stable_from: int | None = None
    # the sums H(h) + H(h-1) are certified constant only from stable_from + 1 on
    if H_source.stable_from is not None and H_source.stable_from + 1 <= h_max:
        doubled = 2 * H_source.stable_value
        k = H_source.stable_from + 1
        while k > 1 and values[k - 1] == doubled:
            k -= 1
        stable_from = k
    return HilbertFunction(values=tuple(values), stable_from=stable_from)


def smallest_odd_element(S: NumericalSemigroup) -> int:
    """min over the classes r of the first odd member among w[r], w[r] + e."""
    w = S.w
    first = np.where(w % 2 == 1, w, w + S.multiplicity)
    return int(first[first % 2 == 1].min())


def duplication_chain(
    S0: NumericalSemigroup,
    steps: int,
    b_rule: Callable[[NumericalSemigroup], int] = smallest_odd_element,
) -> list[NumericalSemigroup]:
    """Iterate S -> duplication of S along its maximal ideal, ``steps`` times.

    Every positive Hilbert value doubles per step and the type maps to
    2t + 1; almost symmetry is preserved.  The default shift rule picks the
    smallest odd element of the current semigroup.
    """
    if S0.conductor == 0:
        raise ValueError("the chain needs a semigroup other than the naturals")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    chain = [S0]
    for _ in range(steps):
        current = chain[-1]
        chain.append(numerical_duplication(current, maximal_ideal(current), b_rule(current)))
    return chain


# ---------------------------------------------------------------------------
# witness procedure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    index: int
    b: int | None  # shift used to produce this step; None for the seed
    semigroup: NumericalSemigroup
    type: int
    hilbert: HilbertFunction

    def to_json(self, include_generators: bool = False) -> dict:
        data = {
            "index": self.index,
            "b": self.b,
            "multiplicity": self.semigroup.multiplicity,
            "embedding_dimension": self.semigroup.embedding_dimension,
            "type": self.type,
            "hilbert": self.hilbert.to_json(),
        }
        if include_generators:
            data["min_gens"] = list(self.semigroup.min_gens)
        return data


@dataclass(frozen=True)
class WitnessReport:
    """A symmetric semigroup whose Hilbert function drops at the asked level.

    ``chain`` records the seed and each maximal-ideal duplication with its
    invariants; ``final`` is the closing duplication along a proper canonical
    ideal.  ``achieved_drop`` is recomputed from the final semigroup itself,
    not read off any prediction.
    """

    level: int
    drop_target: int
    seed_name: str
    chain: tuple[ChainStep, ...]
    final_b: int
    final: NumericalSemigroup
    final_hilbert: HilbertFunction
    achieved_drop: int

    def to_json(self, include_generators: bool = False) -> dict:
        return {
            "level": self.level,
            "drop_target": self.drop_target,
            "seed": self.seed_name,
            "chain": [step.to_json(include_generators) for step in self.chain],
            "final_b": self.final_b,
            "final": {
                "multiplicity": self.final.multiplicity,
                "embedding_dimension": self.final.embedding_dimension,
                "frobenius": self.final.frobenius,
                "hilbert": self.final_hilbert.to_json(),
                "symmetric": True,
                **({"min_gens": list(self.final.min_gens)} if include_generators else {}),
            },
            "achieved_drop": self.achieved_drop,
        }


def _witness_seed(level: int) -> tuple[str, NumericalSemigroup]:
    """Seed semigroup for the requested level."""
    from .fixtures import fixture_semigroup

    if level == 2:
        return "ex3_5_h2", fixture_semigroup("ex3_5_h2")
    if level == 3:
        return "ex2_13_ii", fixture_semigroup("ex2_13_ii")
    return f"construction(ell={level})", construct_asd(level).semigroup


def gorenstein_witness(level: int, drop: int) -> WitnessReport:
    """Symmetric semigroup with H(level-1) - H(level) > drop, fully certified.

    Seeds: the stored level-2 and level-3 semigroups for those levels, the
    parametric construction otherwise.  Then i0 maximal-ideal duplications
    (i0 = floor(log2(drop+1)) at level 2, floor(log2(drop)) + 1 otherwise)
    and one closing duplication along the proper canonical ideal K + f + 1.
    """
    if level < 2:
        raise LevelTooSmall(f"level must be at least 2, got {level}")
    if is_excluded_level(level):
        raise ExcludedLevel(f"no witness is available at level {level}")
    if drop < 1:
        raise ValueError("drop must be a positive integer")

    seed_name, seed = _witness_seed(level)
    if level == 2:
        i0 = (drop + 1).bit_length() - 1
    else:
        i0 = drop.bit_length()

    semigroups = duplication_chain(seed, i0)
    steps = []
    prev_b: int | None = None
    for idx, S in enumerate(semigroups):
        steps.append(
            ChainStep(
                index=idx,
                b=prev_b,
                semigroup=S,
                type=semigroup_type(S),
                hilbert=hilbert_through_stabilization(S, level + 1),
            )
        )
        prev_b = smallest_odd_element(S)

    last = semigroups[-1]
    E = standard_canonical_ideal(last).shift(last.frobenius + 1)
    final_b = smallest_odd_element(last)
    final = numerical_duplication(last, E, final_b)

    H_final = hilbert_through_stabilization(final, level + 1)
    achieved = H_final.value_at(level - 1) - H_final.value_at(level)
    _certify(is_symmetric(final), "witness output must be symmetric")
    _certify(achieved > drop, f"drop {achieved} does not exceed the target {drop}")
    return WitnessReport(
        level=level,
        drop_target=drop,
        seed_name=seed_name,
        chain=tuple(steps),
        final_b=final_b,
        final=final,
        final_hilbert=H_final,
        achieved_drop=achieved,
    )
