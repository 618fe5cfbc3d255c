"""Numerical duplication and the symmetric-witness procedure built on it.

The duplication of a semigroup S along a relative ideal E with an odd member
b of S is the semigroup 2*S union (2*E + b), where 2*X doubles elements (not
the sumset).  It is symmetric exactly when E is a canonical ideal.  Its
minimal generators and its Apery vector follow in closed form from those of
S and E (D'Anna-Strazzanti), so a duplication costs a few O(e) vector
operations plus a certificate that the two agree, and no generator is ever
fed back through :meth:`NumericalSemigroup.from_generators`.  The closed
form needs E's minimal generators x and the Apery vector of E + E, which
the public route gathers; the witness reads both off data its caller
already holds.  Along M, x is S's minimal generators and E + E = 2M has
the vector W_2 of the Hilbert rows; along K + f + 1, x is 2f + 1 - PF(S).
Either way the certificate, one gather, still runs on every build.

Duplicating along the maximal ideal doubles every positive Hilbert value and
maps the type t to 2t + 1 while preserving almost symmetry; iterating this
and finishing with one duplication along a proper canonical ideal yields
symmetric semigroups whose Hilbert function drops at a prescribed level by
more than any prescribed amount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _UNREACHED,
    DomainError,
    NumericalSemigroup,
    _certify,
    _certify_generators,
    _check_size,
    _members,
    _min_plus,
    _relax,
)
from .construction import construct_asd, is_excluded_level
from .hilbert import HilbertFunction, _from_rows, _second_power, hilbert_through_stabilization
from .ideals import (
    RelativeIdeal,
    is_symmetric,
    maximal_ideal,
    pseudo_frobenius,
    semigroup_type,
    standard_canonical_ideal,
)


class EvenB(DomainError):
    """The duplication shift b must be odd."""


class BNotInS(DomainError):
    """The duplication shift b must belong to the semigroup."""


class IdealSumViolation(DomainError):
    """E + E + b escapes S, so the doubled set is not closed under addition."""


class LevelTooSmall(DomainError):
    """The witness procedure needs a level of at least 2."""


class ExcludedLevel(DomainError):
    """Levels 14+22k and 35+46k are outside the witness procedure's range."""


def numerical_duplication(S: NumericalSemigroup, E: RelativeIdeal, b: int) -> NumericalSemigroup:
    """The duplication of S along E with odd shift b in S.

    E need not be contained in S, but D = E + E + b must land in S (automatic
    for proper E); otherwise the union fails to be closed and
    IdealSumViolation is raised.  Nothing is rebuilt from generators: E's
    minimal generators x and E + E = min+(E.w, x) are gathered, and
    :func:`_duplicate` builds and certifies the closed form from them.
    """
    if b % 2 == 0:
        raise EvenB(f"duplication needs an odd b, got {b}")
    if not S.contains(b):
        raise BNotInS(f"{b} is not an element of the semigroup")
    if E.ambient != S:
        raise ValueError("ideal must live over the semigroup being duplicated")
    x = np.array(E.minimal_generators(), dtype=np.int64)
    return _duplicate(S, E, x, _min_plus(E.w, x), b)


def _duplicate(S: NumericalSemigroup, E: RelativeIdeal, x: np.ndarray, sum_w: np.ndarray,
               b: int) -> NumericalSemigroup:
    """The duplication of S along E with odd b in S, given E's data from the caller.

    x must be E's minimal generators and ``sum_w`` the Apery vector of
    E + E; the caller has checked b.  Nothing is rebuilt from generators.
    The minimal generators are read off S, E and D = E + E + b: 2n for the
    minimal generators n of S outside D (2n splits only into two odd
    members, i.e. n in D), and 2x + b for every minimal generator x of E
    (the only split, 2y + b + 2s with s in M, means x in E + M).  Mod 2e the
    class minima are 2 * w_S on the even classes and 2 * w_E + b on the odd
    ones; folded to the multiplicity m = min(gens), which is below 2e only
    for non-proper E, and closed under +2e, they give the Apery vector.
    Both are certified against each other, so a wrong x or ``sum_w`` raises
    rather than build a wrong semigroup.
    """
    D = RelativeIdeal._of(S, sum_w).shift(b)  # E + E + b
    outside = D.w[D.w < S.w]
    if len(outside):
        raise IdealSumViolation(f"{int(outside.min()) - b} + {b} lies in E + E + b but outside S")

    n = np.array(S.min_gens, dtype=np.int64)
    G = tuple(np.sort(np.concatenate([2 * n[~_members(D.w, n)], 2 * x + b])).tolist())
    m = G[0]
    _check_size(m, G[-1])
    u = np.concatenate([2 * S.w, 2 * E.w + b])
    w = np.full(m, _UNREACHED, dtype=np.int64)
    np.minimum.at(w, u % m, u)
    _relax(w, 2 * S.multiplicity)
    _certify_generators(G, w, "duplication")
    return NumericalSemigroup(G, w)


def _canonical_duplication(S: NumericalSemigroup, b: int) -> NumericalSemigroup:
    """The duplication of S along the proper canonical ideal E = K + f + 1 with odd b in S.

    K's minimal generators are f - PF(S) (see :func:`pseudo_frobenius`), so
    E's are 2f + 1 - PF(S), read off the cached PF numbers with no gather.
    """
    f = S.frobenius
    E = standard_canonical_ideal(S).shift(f + 1)
    x = 2 * f + 1 - np.array(pseudo_frobenius(S)[::-1], dtype=np.int64)
    return _duplicate(S, E, x, _min_plus(E.w, x), b)


def predicted_duplication_hilbert(
    H_source: HilbertFunction, type_source: int, h_max: int
) -> HilbertFunction:
    """[1, nu + t, H(2) + H(1), H(3) + H(2), ...] up to h_max.

    This is the Hilbert function of a duplication along a proper canonical
    ideal when the source is almost symmetric; the caller owns that validity
    contract, since the arithmetic itself is happy to extrapolate for the
    non-proper situations where the true values differ.  The type t must be
    at most e - 1, as it is for every semigroup other than N.  With
    s = ``H_source.stable_from``, the values are 2e from s + 1 on, while at
    s itself they are e + H(s - 1) < 2e (s >= 2, by H(k) = e <=> k >= R - 1)
    or nu + t = e + t < 2e (s = 1).  So ``stable_from`` is s + 1, None when
    that is past h_max.
    """
    if h_max < 1:
        raise ValueError("h_max must be at least 1")
    values = [1, H_source.value_at(1) + type_source]
    values.extend(
        H_source.value_at(h) + H_source.value_at(h - 1) for h in range(2, h_max + 1)
    )
    stable_from: int | None = None
    if H_source.stable_from is not None and H_source.stable_from + 1 <= h_max:
        stable_from = H_source.stable_from + 1
    return HilbertFunction(values=tuple(values), stable_from=stable_from)


def _doubled_hilbert(H_source: HilbertFunction, h_max: int) -> HilbertFunction:
    """[1, 2 H(1), 2 H(2), ...] up to h_max: the duplication along the maximal ideal.

    For T the duplication of S (other than N) along M with odd b,
    kM_T = 2 kM_S union (2 kM_S + b) for every k >= 1, so H_T(k) = 2 H_S(k),
    the multiplicity doubles and R_T = R_S: ``stable_from`` carries over.
    """
    values = (1,) + tuple(2 * H_source.value_at(h) for h in range(1, h_max + 1))
    stable_from: int | None = None
    if H_source.stable_from is not None and H_source.stable_from <= h_max:
        stable_from = H_source.stable_from
    return HilbertFunction(values=values, stable_from=stable_from)


def smallest_odd_element(S: NumericalSemigroup) -> int:
    """min over the classes r of the first odd member among w[r], w[r] + e."""
    w = S.w
    first = np.where(w % 2 == 1, w, w + S.multiplicity)
    return int(first[first % 2 == 1].min())


def duplication_chain(S0: NumericalSemigroup, steps: int) -> list[NumericalSemigroup]:
    """Iterate S -> duplication of S along its maximal ideal, ``steps`` times.

    Every positive Hilbert value doubles per step and the type maps to
    2t + 1; almost symmetry is preserved.  Each step shifts by the smallest
    odd element of the current semigroup.
    """
    return _chain(S0, steps)[0]


def _chain(S0: NumericalSemigroup, steps: int) -> tuple[list[NumericalSemigroup], list[int]]:
    """The semigroups of :func:`duplication_chain` and the shifts b, step i + 1 built with bs[i]."""
    if S0.conductor == 0:
        raise ValueError("the chain needs a semigroup other than the naturals")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    chain, bs = [S0], []
    for _ in range(steps):
        S = chain[-1]
        bs.append(smallest_odd_element(S))
        # M's minimal generators are S's, and M + M = 2M has the vector W_2
        gens = np.array(S.min_gens, dtype=np.int64)
        chain.append(_duplicate(S, maximal_ideal(S), gens, _second_power(S), bs[-1]))
    return chain, bs


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

    Every reported H is read off that semigroup's own Apery rows and checked
    by a second route.  The seed's is the set-construction oracle.  A chain
    step's is its parent's certified H doubled, H(h) = 2 H_parent(h) for
    h >= 1; the final's is ``predicted_duplication_hilbert`` of the last
    chain step, [1, nu + t, H(2) + H(1), ...], valid as that step is almost
    symmetric and K + f + 1 is proper.  By induction on the chain, each H
    thus agrees with an independent route, ``stable_from`` included.  Each
    chain step's type, read off its PF numbers, must also be 2 t + 1 for the
    parent's type t.
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
    # each of the i0 + 1 duplications doubles the multiplicity; check the final one up front
    _check_size(seed.multiplicity << (i0 + 1), 0)

    semigroups, bs = _chain(seed, i0)
    steps = [ChainStep(index=0, b=None, semigroup=seed, type=semigroup_type(seed),
                       hilbert=hilbert_through_stabilization(seed, level + 1))]
    for idx, (b, S) in enumerate(zip(bs, semigroups[1:]), start=1):
        H = _from_rows(S, level + 1, extend=True)
        _certify(H == _doubled_hilbert(steps[-1].hilbert, H.h_max),
                 f"Apery-row and duplication-formula Hilbert values disagree at chain step {idx}")
        t = semigroup_type(S)
        _certify(t == 2 * steps[-1].type + 1,
                 f"PF type and the duplication's type 2 t + 1 disagree at chain step {idx}")
        steps.append(ChainStep(index=idx, b=b, semigroup=S, type=t, hilbert=H))

    last = steps[-1]
    final_b = smallest_odd_element(last.semigroup)
    final = _canonical_duplication(last.semigroup, final_b)  # PF(last) is cached by now
    H_final = _from_rows(final, level + 1, extend=True)
    _certify(H_final == predicted_duplication_hilbert(last.hilbert, last.type, H_final.h_max),
             "Apery-row and duplication-formula Hilbert values disagree at the final duplication")
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
