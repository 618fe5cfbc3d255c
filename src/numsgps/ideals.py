"""Relative ideals, pseudo-Frobenius numbers and the symmetry predicates.

A relative ideal of a numerical semigroup S is a subset E of the integers
with E + S contained in E and some translate of E inside S.  Like S itself
it is stored as its Apery vector ``w`` with respect to the multiplicity e of
S (see :mod:`numsgps.core`): ``w[r]`` is the smallest member of E in the
class r mod e.  Equality is equality of vectors; sums, shifts, minimal
generators and the canonical ideal are vector operations, and the listing
``small`` plus ``threshold`` (members below the first integer from which on
everything belongs to E) is derived on demand.  K(S) + M is gathered once
per semigroup: the pseudo-Frobenius numbers are read off it, through the
minimal generators of the canonical ideal K(S), and almost symmetry by its
definition, K(S) + M = M, reads K(S) + M back off those.  K(S) itself is a
reversed rotation of S.w, built from two slices; symmetry compares it with
S.w and reads no PF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .core import (
    APERY_LIMIT, NumericalSemigroup, SizeLimitError, _certify, _maximal, _members, _min_plus,
    _per_class,
)


def _check_range(*values) -> None:
    """Keep ideal elements, shifts and their sums inside int64."""
    if any(abs(int(v)) > APERY_LIMIT for v in values):
        raise SizeLimitError("ideal elements exceed the supported range 2**59")


def _below(w: np.ndarray, threshold: int) -> np.ndarray:
    """Per class, how many members of the set with Apery vector ``w`` lie below ``threshold``."""
    return -((w - threshold) // len(w))


class RelativeIdeal:
    """Immutable relative ideal over a fixed ambient numerical semigroup.

    ``RelativeIdeal(S, elements, threshold)`` is the set of the given
    elements below ``threshold`` plus every integer from ``threshold`` on; it
    raises ValueError unless that set is closed under adding S.
    """

    __slots__ = ("ambient", "w")

    def __init__(self, ambient: NumericalSemigroup, elements: Iterable[int], threshold: int):
        e = ambient.multiplicity
        threshold, *elements = map(int, (threshold, *elements))
        _check_range(threshold, *elements)
        given = np.array(elements, dtype=np.int64)
        # with no flag np.unique imports numpy.ma on its first call (about 6 ms)
        small = np.unique(given[given < threshold], return_index=True)[0]
        w = threshold + (np.arange(e) - threshold) % e
        np.minimum.at(w, small % e, small)
        # closed under +e: in each class, every step from w[r] up to threshold
        if len(small) != _below(w, threshold).sum():
            raise ValueError(f"not an ideal: the set is not closed under adding {e}")
        reached = _min_plus(w, ambient.min_gens)
        escaped = reached[reached < w]
        if len(escaped):
            raise ValueError(f"not an ideal: {escaped.min()} is a member plus a generator "
                             f"but not a member")
        self._set(ambient, w)

    @classmethod
    def _of(cls, ambient: NumericalSemigroup, w: np.ndarray) -> "RelativeIdeal":
        """The ideal with Apery vector ``w``, which must be closed under +S."""
        self = object.__new__(cls)
        self._set(ambient, w)
        return self

    def _set(self, ambient, w):
        _check_range(w.min(), w.max())
        w.setflags(write=False)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RelativeIdeal is immutable")

    # -- queries -------------------------------------------------------------

    def contains(self, x: int) -> bool:
        return bool(_members(self.w, x))

    __contains__ = contains

    @property
    def min_element(self) -> int:
        return int(self.w.min())

    @property
    def threshold(self) -> int:
        """Smallest t with every integer from t on a member."""
        return int(self.w.max()) - len(self.w) + 1

    @property
    def small(self) -> tuple[int, ...]:
        """The members below ``threshold``, ascending; SizeLimitError past LISTING_LIMIT.

        Built class by class (w[r], w[r] + e, ...) in O(size + e) memory.
        """
        return _per_class(self.w, _below(self.w, self.threshold), "ideal listing")

    def is_proper(self) -> bool:
        """Whether the ideal is contained in its ambient semigroup."""
        return bool((self.w >= self.ambient.w).all())

    # -- arithmetic ----------------------------------------------------------

    def shift(self, z: int) -> "RelativeIdeal":
        """The ideal z + E, whose class r holds w[(r - z) mod e] + z: a rotation by two slices."""
        _check_range(z)
        w, cut = self.w, len(self.w) - z % len(self.w)
        return RelativeIdeal._of(self.ambient, np.concatenate((w[cut:], w[:cut])) + z)

    def __add__(self, other: "RelativeIdeal") -> "RelativeIdeal":
        return ideal_sum(self, other)

    def minimal_generators(self) -> tuple[int, ...]:
        """E \\ (E + M): the unique minimal generating system of E over S."""
        w = self.w
        return tuple(np.sort(w[w < _min_plus(w, self.ambient.min_gens)]).tolist())

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelativeIdeal):
            return NotImplemented
        return self.ambient == other.ambient and np.array_equal(self.w, other.w)

    def __hash__(self) -> int:
        return hash((self.ambient, self.w.tobytes()))

    def __repr__(self) -> str:
        try:
            small = self.small
        except SizeLimitError:  # past LISTING_LIMIT: the Apery vector stands in for the listing
            return f"RelativeIdeal(w={self.w.tolist()}, threshold={self.threshold})"
        return f"RelativeIdeal(small={small}, threshold={self.threshold})"

    def to_json(self) -> dict:
        return {"small": list(self.small), "threshold": self.threshold}


def ideal_generated_by(S: NumericalSemigroup, gens: Iterable[int]) -> RelativeIdeal:
    """The relative ideal union of g + S over the given integers g."""
    glist = sorted(set(int(g) for g in gens))
    if not glist:
        raise ValueError("an ideal needs at least one generator")
    _check_range(glist[0], glist[-1])
    return RelativeIdeal._of(S, _min_plus(S.w, glist))


def semigroup_as_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    return RelativeIdeal._of(S, S.w)


def maximal_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """M(S) = S \\ {0}."""
    return RelativeIdeal._of(S, _maximal(S.w))


def ideal_sum(E: RelativeIdeal, F: RelativeIdeal) -> RelativeIdeal:
    """{x + y : x in E, y in F}: the union of the translates x + F over E's generators."""
    if E.ambient != F.ambient:
        raise ValueError("ideal sum requires a common ambient semigroup")
    return RelativeIdeal._of(E.ambient, _min_plus(F.w, E.minimal_generators()))


# ---------------------------------------------------------------------------
# pseudo-Frobenius numbers, canonical ideals, symmetry
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def pseudo_frobenius(S: NumericalSemigroup) -> tuple[int, ...]:
    """PF(S): integers x outside S with x + M inside S; |PF| is the type.

    x is a PF number exactly when y = f - x is a minimal generator of K(S):
    f - y outside S puts y in K, and f - y + M inside S keeps y out of K + M.
    So PF(S) = f - mingens(K(S)), read off the one gather of K(S) + M per
    semigroup; for the naturals K = S and PF = {-1}.  Certified against
    Nari's inequality 2g >= F + t.
    """
    f = S.frobenius
    pf = tuple(f - y for y in reversed(standard_canonical_ideal(S).minimal_generators()))
    _certify(2 * S.genus >= f + len(pf), "PF count breaks Nari's inequality 2g >= F + t")
    return pf


def semigroup_type(S: NumericalSemigroup) -> int:
    return len(pseudo_frobenius(S))


def standard_canonical_ideal(S: NumericalSemigroup) -> RelativeIdeal:
    """K(S) = {x >= 0 : f(S) - x not in S}; sits between S and the naturals.

    x in the class r lies in K exactly when f - x < w[(f - r) mod e], which
    gives the Apery vector f + e - w[(f - r) mod e]: with a = f mod e, the
    reversed w[a], ..., w[0] then w[e - 1], ..., w[a + 1], two slices taken
    from f + e in place.
    """
    f, e, w = S.frobenius, S.multiplicity, S.w
    a = f % e
    k = np.concatenate((w[a::-1], w[:a:-1]))
    return RelativeIdeal._of(S, np.subtract(f + e, k, out=k))


def is_canonical_ideal(E: RelativeIdeal) -> bool:
    """Whether E is some integer shift of K(S)."""
    K = standard_canonical_ideal(E.ambient)
    return K.shift(E.min_element - K.min_element) == E


def is_symmetric(S: NumericalSemigroup) -> bool:
    """K(S) = S; checked against Selmer's equivalent condition 2g = F + 1."""
    sym = np.array_equal(standard_canonical_ideal(S).w, S.w)
    _certify(sym == (2 * S.genus == S.frobenius + 1), "K(S) = S disagrees with Selmer's 2g = F + 1")
    return sym


@dataclass(frozen=True)
class NariPartition:
    """Split of the Apery set used by the pairwise-sum almost-symmetry test.

    b collects x + e for the pseudo-Frobenius numbers x other than the
    Frobenius number; a is the rest of the Apery set (0 included).  The
    largest element of a is always f(S) + e.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def to_json(self) -> dict:
        return {"A": list(self.a), "B": list(self.b)}


def nari_partition(S: NumericalSemigroup) -> NariPartition:
    e = S.multiplicity
    f = S.frobenius
    pf = pseudo_frobenius(S)
    b = sorted(x + e for x in pf if x != f)
    a = sorted(set(S.w.tolist()) - set(b))
    return NariPartition(a=tuple(a), b=tuple(b))


def is_almost_symmetric(S: NumericalSemigroup, method: str = "definition") -> bool:
    """Almost symmetry, by definition (M + K(S) = M) or by Nari's criterion.

    The definition route reads K(S) + M off the cached PF(S), with no gather
    of its own.  In each class r, K + M holds K's least member w[r] unless
    w[r] is a minimal generator of K, that is f - x for some x in PF(S);
    then it holds w[r] + e, which lies in K + e.  It compares that with
    :func:`maximal_ideal`.
    The Nari route demands alpha_i + alpha_{m-i} = alpha_m on the a-part and
    beta_j + beta_{t-j} = alpha_m + e on the b-part of the Apery partition,
    each as one comparison of the part with its reverse.  Either answer is
    certified against Nari's equivalent condition 2g = F + t.
    """
    if method == "definition":
        generators = S.frobenius - np.array(pseudo_frobenius(S), dtype=np.int64)
        plus_maximal = standard_canonical_ideal(S).w.copy()
        plus_maximal[generators % S.multiplicity] += S.multiplicity
        almost = np.array_equal(plus_maximal, maximal_ideal(S).w)
    elif method == "nari":
        part = nari_partition(S)
        a, b = np.array(part.a), np.array(part.b, dtype=np.int64)
        top = a[-1]
        almost = bool((a[1:-1] + a[-2:0:-1] == top).all()
                      and (b + b[::-1] == top + S.multiplicity).all())
    else:
        raise ValueError(f"unknown method {method!r}; use 'definition' or 'nari'")
    _certify(almost == (2 * S.genus == S.frobenius + semigroup_type(S)),
             f"almost symmetry by {method} disagrees with Nari's 2g = F + t")
    return almost
