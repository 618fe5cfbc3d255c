"""Numerical semigroups as exact integer objects.

A numerical semigroup is a submonoid of the naturals with finite complement.
Every subset of the integers closed under adding the semigroup, the
semigroup itself and its relative ideals alike, meets each residue class
mod the multiplicity e in an arithmetic progression with step e.  Such a set
is stored as one read-only int64 vector ``w`` of length e, its Apery vector:
``w[r]`` is the smallest member in the class r mod e, and x is a member
exactly when ``x >= w[x % e]``.  Memory is O(e) whatever the conductor, and
every invariant is an exact integer read off ``w``: the Frobenius number is
max(w) - e, the genus is the number sum(w // e) of gaps below the class
minima, and gaps or membership tables are produced on demand.

:func:`_members` reads membership off such a vector, :func:`_per_class`
lists a set class by class, and :func:`_min_plus_steps` applies a min-plus
gather over all e classes step after step; semigroup and ideal arithmetic
and pseudo-Frobenius numbers take one step (:func:`_min_plus`), the Hilbert
oracle one per level.  The Hilbert rows of :mod:`numsgps.hilbert` do not:
``_levels`` reads Ap(2M) off the minimal generators and from there gathers
only over the frontier of classes that stayed put at the last level, times
the generators that kept some class there.  A semigroup given in closed
form, its Apery vector and generators read off a formula rather than found
by the round robin, is checked by one gather in :func:`_certify_generators`.
Past _GATHER_CELLS classes a min-plus step reads each shifted window as two
slices of the last row, with no doubled copy of it, and the round robin's
:func:`_relax` indexes a generator prime to e, whose residues form one
cycle, as a single row.

Storage stays int64.  The two vector kernels, the min-plus steps and the
rows, compute in the narrowest of int16, int32 and int64 that an a-priori
bound on their values fits (:func:`_narrow`, the one place that names the
narrow dtypes).  The min-plus steps return int64; the rows stay inside the
Hilbert walk, which hands out Python ints and int64 orders.  Index
arithmetic stays in int64: a class index can reach e, and e may exceed what
the values need.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

# Generators above this bound would make conductors explode; all realistic
# inputs sit far below.
GENERATOR_LIMIT = 1 << 40

# The Apery vector costs 8e bytes.  The round robin peaks at 32e bytes with it, by
# tracemalloc on two to three generators: _relax holds steps, index and best of at
# most e entries each; 0.5 GiB at this limit.
MULTIPLICITY_LIMIT = 1 << 24

# Every Apery value is at most (e - 1) * max(gens); below this bound the
# round robin's intermediate sums and its sentinel _UNREACHED stay in int64.
APERY_LIMIT = 1 << 59
_UNREACHED = 1 << 62

# Index cells per gather block: bounds the temporary of one block to at most 512 KiB.
_GATHER_CELLS = 1 << 16

# Elements that a per-class listing (gaps, ideal members below the threshold) may hold.
LISTING_LIMIT = 1 << 22


class SemigroupError(Exception):
    """Base class for the errors raised by this package."""


class DomainError(SemigroupError):
    """The input lies outside a construction's domain: an excluded level, bad duplication data."""


class GcdError(SemigroupError, ValueError):
    """The generators have gcd > 1, so the complement would be infinite: an input error, exit 2."""


class NotMember(SemigroupError, ValueError):
    """An integer that was required to lie in the semigroup does not: an input error, exit 2."""


class CertificationError(SemigroupError, AssertionError):
    """Two routes to a documented invariant disagree: a fault in this package, not in the input."""


class SizeLimitError(SemigroupError, ValueError):
    """A size guard rejects the input before anything of that size is built."""


def _certify(ok: bool, message: str) -> None:
    """Fail a documented cross-check; an explicit raise also fires under ``python -O``."""
    if not ok:
        raise CertificationError(message)


def _members(w: np.ndarray, x):
    """Membership of x (an integer or an array) in the set with Apery vector ``w``."""
    return x >= w[x % len(w)]


def _maximal(w: np.ndarray) -> np.ndarray:
    """The vector of M = T \\ {0}, for T the set with Apery vector ``w``: w with w[0] = e."""
    maximal = w.copy()
    maximal[0] = len(w)
    return maximal


def _narrow(lo: int, hi: int) -> type[np.signedinteger]:
    """The dtype of a kernel whose values all lie in [lo, hi]: the narrowest of int16, int32, int64.

    Both margins are strict for int16 and int32 alike.  No kernel uses
    iinfo(dt).max as a sentinel; the margins stay strict because they keep
    the negation of every value in range, as -iinfo(dt).min does not fit,
    and the int16 and int32 edge tests pin the switch where they put it.
    Only the values are narrowed: a caller keeps its index arithmetic in
    int64.  The limits are literals: np.iinfo costs about 0.4 us a call.
    """
    for dt, top in ((np.int16, 1 << 15), (np.int32, 1 << 31)):  # dt holds [-top, top - 1]
        if -top < lo and hi < top - 1:
            return dt
    return np.int64


def _min_plus_steps(v: np.ndarray, shifts, steps: int) -> Iterator[np.ndarray]:
    """Yield v_1, ..., v_steps: v_j[r] = min over s in ``shifts`` of v_{j-1}[(r - s) mod e] + s.

    Here v_0 = v and e = len(v).  For the Apery vector v of a set X closed
    under +S, v_j is the Apery vector of X plus j shifts.  With s_lo and s_hi
    the least and largest shift, v_j lies in [min(v) + j s_lo, max(v) + j s_lo]
    and the sums of step j in [min(v) + j s_lo, max(v) + (j - 1) s_lo + s_hi],
    so one dtype fits every step (see :func:`_narrow`).  Each step is yielded
    as a fresh int64 vector, so memory stays O(e) for any number of steps.  A
    block gathers _GATHER_CELLS // e windows of [v_j, v_j] and reduces them,
    its window starts and shifts sliced once for all steps; the windows are
    built once and each step is written back into them.  Once e passes
    _GATHER_CELLS a block is one window, read as two slices of v_j straight
    into a row with no [v_j, v_j] copy and no reduction; the first window of
    a step gets a row of its own, which becomes v_{j+1}, and the later ones
    share a spare row.  Between steps that branch holds only v_j and the
    spare row.  In int64 the yielded row is v_{j+1} itself and the
    consumer's to write into, so the kernel reads on from a copy, taken once
    it has dropped v_j and only while steps remain.  So for a caller that
    keeps no yielded vector a step peaks at three rows, not four.
    """
    e = len(v)
    shifts = np.asarray(shifts, dtype=np.int64)
    v_lo, v_hi, s_lo, s_hi = int(v.min()), int(v.max()), int(shifts.min()), int(shifts.max())
    # v[(r - s) mod e] is entry r of the window of [v, v] that starts at e - (s mod e);
    # the starts reach e, which need not fit the values' dtype, so they come from int64
    starts = e - shifts % e
    # a cast would wrap an operand outside the narrow dtype, so the operands must fit as well
    dt = _narrow(min(v_lo, s_lo, v_lo + s_lo, v_lo + steps * s_lo),
                 max(v_hi, s_hi, v_hi + max(0, (steps - 1) * s_lo) + s_hi))
    v, shifts = v.astype(dt, copy=False), shifts.astype(dt, copy=False)
    per_block = _GATHER_CELLS // e
    if per_block > 1:
        # row j of this view is the window at j (sliding_window_view adds ~20 us per call)
        twice = np.concatenate([v, v])
        windows = np.ndarray((e + 1, e), dt, buffer=twice, strides=2 * twice.strides)
        blocks = [(starts[lo : lo + per_block], shifts[lo : lo + per_block, None])
                  for lo in range(0, len(shifts), per_block)]
    else:
        # a one-window block reads its start and shift as it comes: nu pairs of slices,
        # about 300 bytes each, would outweigh the rows
        blocks = None
        spare = np.empty(e, dtype=dt)
    for step in range(steps):
        # a step's row is its first block's minimum, lowered in place by each later block
        for i, (start, shift) in enumerate(blocks or zip(starts, shifts)):
            if blocks:
                block = windows[start]
                block += shift  # in place: one temporary, not two
                least = np.minimum.reduce(block, axis=0)
                # dropped before the next gather: with two blocks alive the allocator gave
                # one back to the OS at every other block and faulted it in again
                del block
            else:  # the window at start is v[start:] then v[:start]
                least = spare if i else np.empty(e, dtype=dt)
                np.add(v[start:], shift, out=least[: e - start])
                np.add(v[:start], shift, out=least[e - start :])
            if i:
                np.minimum(out, least, out=out)
            else:
                out = least
        yielded = out.astype(np.int64, copy=False)
        # in int64 the yielded vector is out itself, which the consumer may write into, so
        # the next step's input is taken from out before the yield
        if step + 1 < steps:
            if blocks:
                twice[:e] = twice[e:] = out
            else:
                del v  # so that the copy below may take its memory
                v = out.copy() if yielded is out else out
        yield yielded
        del out, least, yielded  # so the next step's first row takes this row's memory


def _min_plus(v: np.ndarray, shifts) -> np.ndarray:
    """out[r] = min over s in ``shifts`` of v[(r - s) mod e] + s: :func:`_min_plus_steps` once."""
    return next(_min_plus_steps(v, shifts, 1))


def _per_class(starts: np.ndarray, counts: np.ndarray, what: str) -> tuple[int, ...]:
    """starts[r] + j e for 0 <= j < counts[r] over every class r, ascending; e = len(starts).

    Built class by class in O(size + e) memory; SizeLimitError past LISTING_LIMIT.
    """
    size = int(counts.sum())
    if size > LISTING_LIMIT:
        raise SizeLimitError(f"{what} of {size} elements exceeds the supported size 2**22")
    steps = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
    return tuple(np.sort(np.repeat(starts, counts) + len(starts) * steps).tolist())


def _check_size(e: int, top: int) -> None:
    """Reject a semigroup of multiplicity e and largest generator top before allocating."""
    if top > GENERATOR_LIMIT:
        raise SizeLimitError(f"generator {top} exceeds the supported range 2**40")
    if e > MULTIPLICITY_LIMIT:
        raise SizeLimitError(f"multiplicity {e} exceeds the supported range 2**24")
    if (e - 1) * top > APERY_LIMIT:
        raise SizeLimitError(
            f"Apery values up to (e - 1) * {top} exceed the supported range 2**59"
        )


def _relax(w: np.ndarray, g: int) -> None:
    """Close the Apery vector ``w`` under +g > 0 in place, once around each cycle of +g mod e.

    With P_i the least w[c_j] - j g over j <= i on a cycle c_0, c_1, ..., w[c_i] becomes
    min(P_i + i g, P_last + (i + length) g): a path into c_i that wraps around, from c_j with
    j > i, costs w[c_j] - j g + (i + length) g, and one with j <= i pays a lap more than P_i's.
    Entries stay below 2**62 + 2 e g < 2**63 under APERY_LIMIT.  A multiple g of e changes
    nothing, as w[r] + g lies in the class of w[r], so it returns at once.
    """
    e = len(w)
    if g % e == 0:
        return
    length = e // math.gcd(g, e)
    # row c < e / length walks c, c + g, c + 2g, ... (mod e) once around its cycle; with
    # gcd(g, e) = 1 the one cycle is a single row, with no offsets column to add
    steps = np.arange(length, dtype=np.int64) * g
    index = steps % e
    if length < e:
        index = index + np.arange(e // length, dtype=np.int64)[:, None]
    best = w[index]
    best -= steps
    np.minimum.accumulate(best, axis=-1, out=best)
    np.minimum(best, best[..., -1:] + length * g, out=best)
    best += steps
    w[index] = best


def _certify_generators(G: tuple[int, ...], w: np.ndarray, where: str) -> None:
    """G must be the minimal generators of the set T with Apery vector ``w``.

    Let w_1 be w with w_1[0] = m = len(w), the vector of M = T \\ {0}, and
    A_2 = min+(w_1, G), the vector of M + G.  w[0] must be 0, and w_1
    differs from w only there, so min+(w, G), the vector of T + G, is
    min(A_2, gamma) for gamma[c] the least g in the class c: the terms
    w[0] + g are the g themselves.  T + G = M exactly when every positive member of T is a
    smaller member plus some g; with G inside T that gives T = <G>.  Then
    A_2 is the vector of M + M, and g is a minimal generator exactly when it
    lies below A_2[g mod m].  So one gather certifies both.  ``where`` names
    the route whose closed form is being certified.
    """
    m = len(w)
    g = np.asarray(G, dtype=np.int64)
    classes = g % m
    maximal = _maximal(w)
    reached = _min_plus(maximal, g)
    above = reached[classes]
    np.minimum.at(reached, classes, g)  # in place: min+(w, G), no second vector of length m
    _certify(w[0] == 0 and _members(w, g).all() and np.array_equal(reached, maximal),
             f"{where}: generators do not generate the closed-form Apery set")
    _certify((g < above).all(), f"{where}: a generator is a sum of two others")


def _round_robin(glist: list[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """Minimal generators and Apery vector of the semigroup of sorted ``glist``.

    Adds the generators in ascending order (Boecker-Liptak), closing the
    vector under each in turn.  g is redundant exactly when the generators
    before it already reach it, i.e. w[g mod e] <= g.
    """
    e = glist[0]
    w = np.full(e, _UNREACHED, dtype=np.int64)
    w[0] = 0
    min_gens = [e]
    for g in glist[1:]:
        if w[g % e] <= g:
            continue
        min_gens.append(g)
        _relax(w, g)
    return tuple(min_gens), w


class NumericalSemigroup:
    """Immutable numerical semigroup; build via :meth:`from_generators`.

    ``w`` is the read-only Apery vector with respect to the multiplicity.
    ``min_gens`` must be the minimal generators, ascending: the Hilbert rows
    read Ap(2M) off them.  :meth:`from_generators` minimalizes through the
    round robin, and the closed-form builders certify theirs with
    :func:`_certify_generators`.
    """

    __slots__ = ("min_gens", "w", "frobenius", "conductor", "genus")

    min_gens: tuple[int, ...]
    w: np.ndarray
    frobenius: int
    conductor: int
    genus: int

    def __init__(self, min_gens: tuple[int, ...], w: np.ndarray):
        w.setflags(write=False)
        object.__setattr__(self, "min_gens", min_gens)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "frobenius", int(w.max()) - min_gens[0])
        object.__setattr__(self, "conductor", self.frobenius + 1)
        # Selmer's formula: the class r mod e holds w[r] // e gaps
        object.__setattr__(self, "genus", int((w // min_gens[0]).sum()))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NumericalSemigroup is immutable")

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Build the semigroup generated by ``gens``.

        Raises GcdError when gcd(gens) != 1, ValueError on empty or nonpositive
        input and SizeLimitError, a ValueError too, on oversized input.  The
        stored generating system is minimalized, so redundant input generators
        are discarded.
        """
        glist = sorted(set(int(g) for g in gens))
        if not glist:
            raise ValueError("at least one generator is required")
        if glist[0] <= 0:
            raise ValueError(f"generators must be positive, got {glist[0]}")
        _check_size(glist[0], glist[-1])
        if math.gcd(*glist) != 1:
            raise GcdError(f"gcd of generators is {math.gcd(*glist)}, not 1")
        return cls(*_round_robin(glist))

    # -- primitive queries -------------------------------------------------

    @property
    def multiplicity(self) -> int:
        return self.min_gens[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_gens)

    @property
    def gaps(self) -> tuple[int, ...]:
        """The class r holds the gaps r, r + e, ..., w[r] - e; SizeLimitError past LISTING_LIMIT."""
        e = self.multiplicity
        return _per_class(np.arange(e, dtype=np.int64), self.w // e, "gap listing")

    def contains(self, x: int) -> bool:
        return bool(_members(self.w, x))

    __contains__ = contains

    def members_up_to(self, bound: int) -> np.ndarray:
        """Boolean membership table over [0, bound); SizeLimitError past LISTING_LIMIT."""
        if bound > LISTING_LIMIT:
            raise SizeLimitError(f"member table of {bound} cells exceeds the supported size 2**22")
        return _members(self.w, np.arange(bound, dtype=np.int64))

    def elements_up_to(self, bound: int) -> list[int]:
        return np.flatnonzero(self.members_up_to(bound)).tolist()

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_gens == other.min_gens

    def __hash__(self) -> int:
        return hash(self.min_gens)

    def __repr__(self) -> str:
        return f"NumericalSemigroup{self.min_gens}"

    def to_json(self) -> dict:
        return {
            "min_gens": list(self.min_gens),
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
            "frobenius": self.frobenius,
            "conductor": self.conductor,
            "genus": self.genus,
        }


def parse_generators(text: str) -> list[int]:
    """Parse a generator list given as '4,6,7' or as a JSON array '[4,6,7]'."""
    text = text.strip()
    if text.startswith("["):
        import json

        data = json.loads(text)
        # bool is a subclass of int, but true/false are not generators
        if not isinstance(data, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in data
        ):
            raise ValueError("JSON generator list must be an array of integers")
        return data
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse generator list {text!r}") from exc
