"""Numerical semigroups as exact integer objects.

A numerical semigroup is a submonoid of the naturals with finite complement.
It is stored here as its unique minimal generating system together with a
dense membership table up to the conductor, so that every later query
(membership, gaps, Apery sets, Hilbert values) is a table lookup or a short
exact computation, never an approximation.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# Generators above this bound would make conductors (and hence the dense
# tables) explode; all realistic inputs sit far below.
GENERATOR_LIMIT = 1 << 40

# Hard cap on the dense sieve, to fail loudly instead of eating all memory.
SIEVE_CEILING = 1 << 28


class SemigroupError(Exception):
    """Base class for the domain errors raised by this package."""


class GcdError(SemigroupError):
    """The generators have gcd > 1, so the complement would be infinite."""


class NotMember(SemigroupError):
    """An integer that was required to lie in the semigroup does not."""


def _closure_bits(gens: tuple[int, ...], bound: int) -> np.ndarray:
    """Exact table of all nonnegative integer combinations of ``gens`` below ``bound``.

    Starts from {0} and, for each generator g, ORs in shifts by g, 2g, 4g, ...
    Doubling the shift makes each pass exact for arbitrarily many copies of g.
    """
    bits = np.zeros(bound, dtype=bool)
    if bound == 0:
        return bits
    bits[0] = True
    for g in gens:
        shift = g
        while shift < bound:
            np.logical_or(bits[shift:], bits[:-shift], out=bits[shift:])
            shift *= 2
    return bits


def _first_full_window(bits: np.ndarray, width: int) -> int:
    """Smallest index where ``width`` consecutive True entries start, or -1."""
    n = len(bits)
    if width > n:
        return -1
    counts = np.cumsum(bits, dtype=np.int64)
    window = counts[width - 1 :].copy()
    window[1:] -= counts[: n - width]
    hits = np.flatnonzero(window == width)
    return int(hits[0]) if len(hits) else -1


class NumericalSemigroup:
    """Immutable numerical semigroup; build via :meth:`from_generators`."""

    __slots__ = ("min_gens", "frobenius", "conductor", "gaps", "_bits")

    min_gens: tuple[int, ...]
    frobenius: int
    conductor: int
    gaps: tuple[int, ...]

    def __init__(self, min_gens, frobenius, conductor, gaps, bits):
        object.__setattr__(self, "min_gens", min_gens)
        object.__setattr__(self, "frobenius", frobenius)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "_bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("NumericalSemigroup is immutable")

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Build the semigroup generated by ``gens``.

        Raises GcdError when gcd(gens) != 1 and ValueError on empty, nonpositive
        or oversized input.  The stored generating system is minimalized, so
        redundant input generators are discarded.
        """
        glist = sorted(set(int(g) for g in gens))
        if not glist:
            raise ValueError("at least one generator is required")
        if glist[0] <= 0:
            raise ValueError(f"generators must be positive, got {glist[0]}")
        if glist[-1] > GENERATOR_LIMIT:
            raise ValueError(f"generator {glist[-1]} exceeds the supported range 2**40")
        if math.gcd(*glist) != 1:
            raise GcdError(f"gcd of generators is {math.gcd(*glist)}, not 1")

        e = glist[0]
        bound = max(2 * glist[-1] + 2, 2 * e + 2)
        while True:
            if bound > SIEVE_CEILING:
                raise ValueError("generators too large for the dense membership sieve")
            bits = _closure_bits(tuple(glist), bound)
            conductor = _first_full_window(bits, e)
            if conductor >= 0:
                break
            bound *= 2

        frobenius = conductor - 1
        gaps = tuple(int(x) for x in np.flatnonzero(~bits[:conductor]))
        min_gens = tuple(g for g in glist if not _is_sum_of_two(bits, e, g))
        table = bits[: conductor + 1].copy()
        table.setflags(write=False)
        return cls(min_gens, frobenius, conductor, gaps, table)

    # -- primitive queries -------------------------------------------------

    @property
    def multiplicity(self) -> int:
        return self.min_gens[0]

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_gens)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return bool(self._bits[x])

    __contains__ = contains

    def members_up_to(self, bound: int) -> np.ndarray:
        """Boolean membership table over [0, bound)."""
        out = np.zeros(bound, dtype=bool)
        head = min(bound, self.conductor + 1)
        out[:head] = self._bits[:head]
        if bound > self.conductor:
            out[self.conductor :] = True
        return out

    def elements_up_to(self, bound: int) -> list[int]:
        return [int(x) for x in np.flatnonzero(self.members_up_to(bound))]

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


def _is_sum_of_two(bits: np.ndarray, e: int, x: int) -> bool:
    """Whether x = a + b with both a, b nonzero members of the sieved set."""
    lo, hi = e, x - e
    if hi < lo:
        return False
    forward = bits[lo : hi + 1]
    backward = bits[hi : lo - 1 : -1] if lo > 1 else bits[hi::-1][: hi - lo + 1]
    return bool(np.any(forward & backward))


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
