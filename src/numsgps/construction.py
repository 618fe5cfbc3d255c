"""Parametric family of almost symmetric semigroups with a prescribed drop.

For every admissible level ell >= 4 the function :func:`construct_asd` builds
an almost symmetric numerical semigroup whose Hilbert function is constant at
the embedding dimension up to level ell - 1, drops by exactly one at level
ell, and then climbs to the multiplicity.  The generating set is assembled
from two arithmetic families (s and r below) on top of three base generators
e < n1 < n2 chosen so that ell*n1 + (ell-1)*e = (ell+2)*n2.

Levels congruent to 14 mod 22 or 35 mod 46 are excluded: exactly there
gcd(e, n1, n2) > 1 and no numerical semigroup arises.

The semigroup is built from its Apery set, which the paper gives in closed
form: 0, k*n1 for k <= ell, n2, t1, t2 and the s and r families.  Each
member fills its class mod e, and a one-gather certificate checks that the
generating set generates exactly that Apery set and that no generator is a
sum of two others.  So the family claims of :func:`verify_construction` are
settled when the semigroup is built: a wrong family raises CertificationError,
an AssertionError (CLI exit 4), as a redundant generator does, and never
passes silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    LISTING_LIMIT, DomainError, NumericalSemigroup, SizeLimitError, _certify,
    _certify_generators, _check_size,
)
from .hilbert import apery_table, decrease_levels, hilbert_through_stabilization
from .ideals import is_almost_symmetric, nari_partition, pseudo_frobenius, semigroup_type


class EllTooSmall(DomainError):
    """The construction needs level >= 4."""


class ExcludedEll(DomainError):
    """Levels 14+22k and 35+46k admit no construction (gcd obstruction)."""


def is_excluded_level(ell: int) -> bool:
    return (ell >= 14 and ell % 22 == 14) or (ell >= 35 and ell % 46 == 35)


def _base_parameters(ell: int) -> tuple[int, int, int]:
    e = ell * ell + 3 * ell + 4
    if ell % 2 == 1:
        n1 = e + (2 * ell - 1)
        n2 = e + (ell * ell - 6)
    else:
        n1 = e + (ell - 3)
        n2 = e + (ell * ell - ell - 6)
    return e, n1, n2


def gcd_validity(ell: int) -> tuple[bool, int]:
    """gcd(e, n1, n2) for the level's base parameters, and whether it is 1."""
    if ell < 4:
        raise EllTooSmall(f"level must be at least 4, got {ell}")
    e, n1, n2 = _base_parameters(ell)
    g = math.gcd(e, n1, n2)
    return g == 1, g


@dataclass(frozen=True)
class ConstructionData:
    """All intermediate quantities of the construction at one level."""

    ell: int
    e: int
    n1: int
    n2: int
    offset1: int  # n1 - e
    offset2: int  # n2 - e
    t1: int
    t2: int
    s_family: dict[tuple[int, int], int]
    r_family: dict[tuple[int, int], int]
    gamma: tuple[int, ...]
    semigroup: NumericalSemigroup

    def to_json(self, include_generators: bool = True) -> dict:
        data = {
            "ell": self.ell,
            "e": self.e,
            "n1": self.n1,
            "n2": self.n2,
            "t1": self.t1,
            "t2": self.t2,
            "s_family": {f"{p},{q}": v for (p, q), v in sorted(self.s_family.items())},
            "r_family": {f"{p},{q}": v for (p, q), v in sorted(self.r_family.items())},
            "semigroup": self.semigroup.to_json(),
        }
        if include_generators:
            data["gamma"] = list(self.gamma)
        return data


def _residue_family(
    ell: int, n1: int, n2: int, t1: int, t2: int,
    s_family: dict[tuple[int, int], int], r_family: dict[tuple[int, int], int],
) -> tuple[int, ...]:
    """The nonzero Apery elements, ascending: k*n1 (k <= ell), n2, both families, t1, t2."""
    out = {k * n1 for k in range(1, ell + 1)}
    out.add(n2)
    out.update(s_family.values())
    out.update(r_family.values())
    out.update({t1, t2})
    return tuple(sorted(out))


def construct_asd(ell: int) -> ConstructionData:
    """Build the level-``ell`` almost symmetric semigroup with decreasing Hilbert function.

    Raises EllTooSmall below 4 and ExcludedEll on the obstructed residue
    classes.  The Apery vector is filled from the family, which must meet
    each nonzero class mod e exactly once (this also fails when
    gcd(e, n1, n2) > 1), and certified against the generators; nothing is
    rebuilt by :meth:`NumericalSemigroup.from_generators`.  Every structural
    count is checked at build time, so a wrong family raises CertificationError
    rather than return a plausible semigroup.
    """
    if ell < 4:
        raise EllTooSmall(f"level must be at least 4, got {ell}")
    if is_excluded_level(ell):
        raise ExcludedEll(f"level {ell} is excluded (no construction exists)")

    e, n1, n2 = _base_parameters(ell)
    # ell * n1 = F + e is the largest Apery element, so it bounds every generator;
    # checked before the families, which hold (ell^2 + 3 ell) / 2 and (ell^2 + ell) / 2 entries
    _check_size(e, ell * n1)
    if ell * ell + 2 * ell > LISTING_LIMIT:
        raise SizeLimitError(f"level {ell}: the s and r families of {ell * ell + 2 * ell}"
                             " entries exceed the supported size 2**22")
    t1 = (ell + 1) * n1 - (ell - 1) * e
    t2 = ell * n1 + e - t1

    s_family: dict[tuple[int, int], int] = {}
    for q in range(1, ell + 2):
        for p in range(0, ell + 1):
            if 2 <= p + q <= ell + 1:
                s_family[(p, q)] = p * n1 + q * n2 - (p + q - 2) * e
    r_family: dict[tuple[int, int], int] = {}
    for (p, q), s in s_family.items():
        if p >= 1 and q >= 1:
            r_family[(p, q)] = ell * n1 + e - s

    _certify(ell * n1 + (ell - 1) * e == (ell + 2) * n2,
             "base generators break ell*n1 + (ell-1)*e = (ell+2)*n2")

    gamma_set = {e, n1, n2, t1, t2}
    gamma_set.update(s_family.values())
    gamma_set.update(r_family.values())
    gamma_set.discard(n1 + n2)
    gamma_set.discard(2 * n2)
    gamma = tuple(sorted(gamma_set))
    _certify(len(gamma) == e - ell - 1, "generating families collide unexpectedly")

    where = f"construction at level {ell}"
    family = np.array(_residue_family(ell, n1, n2, t1, t2, s_family, r_family), dtype=np.int64)
    classes = family % e
    hits = np.bincount(classes, minlength=e)
    _certify(hits[0] == 0 and (hits[1:] == 1).all(),
             f"{where}: the Apery family does not meet each nonzero class mod {e} once")
    w = np.zeros(e, dtype=np.int64)
    w[classes] = family
    _certify_generators(gamma, w, where)
    return ConstructionData(
        ell=ell,
        e=e,
        n1=n1,
        n2=n2,
        offset1=n1 - e,
        offset2=n2 - e,
        t1=t1,
        t2=t2,
        s_family=s_family,
        r_family=r_family,
        gamma=gamma,
        semigroup=NumericalSemigroup(gamma, w),
    )


# ---------------------------------------------------------------------------
# verification certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    name: str
    expected: Any
    actual: Any

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "pass": self.passed,
        }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ConstructionCertificate:
    ell: int
    claims: tuple[Claim, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def failures(self) -> tuple[Claim, ...]:
        return tuple(c for c in self.claims if not c.passed)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "all_passed": self.all_passed,
            "claims": [c.to_json() for c in self.claims],
        }


def verify_construction(ell: int) -> ConstructionCertificate:
    """Recompute every claimed property of the level-``ell`` construction.

    Each claim is recorded as expected/actual; a failed claim is reported,
    never raised.  The three family claims (size, distinct residues, equal
    to the Apery set) restate the build certificate: :func:`construct_asd`
    fills S.w from the family and raises on a wrong one, so they pass if reached.
    """
    return _verify(construct_asd(ell))


def _verify(data: ConstructionData) -> ConstructionCertificate:
    """The claims of :func:`verify_construction` on an already built construction."""
    ell, S, e, n1, n2 = data.ell, data.semigroup, data.e, data.n1, data.n2
    nu_expected = ell * ell + 2 * ell + 3
    claims: list[Claim] = []

    claims.append(Claim("embedding_dimension", nu_expected, S.embedding_dimension))
    claims.append(Claim("type", ell * ell + 2 * ell + 2, semigroup_type(S)))
    claims.append(Claim("frobenius", ell * n1 - e, S.frobenius))

    H = hilbert_through_stabilization(S, ell + 2)
    claims.append(Claim("hilbert_plateau", tuple([1] + [nu_expected] * (ell - 1)), H.values[: ell]))
    claims.append(Claim("drop_level_value", nu_expected - 1, H.values[ell]))
    claims.append(Claim("decrease_levels", (ell,), decrease_levels(H)))
    claims.append(Claim("drop_size_over_two_levels", 1, H.values[ell - 2] - H.values[ell]))

    claims.append(Claim("almost_symmetric_definition", True, is_almost_symmetric(S, "definition")))
    claims.append(Claim("almost_symmetric_nari", True, is_almost_symmetric(S, "nari")))

    apery = apery_table(S)
    claims.append(Claim("apery_stratum_2", (2 * n1, n1 + n2, 2 * n2), apery.stratum(2)))
    for k in range(3, ell + 1):
        claims.append(Claim(f"apery_stratum_{k}", (k * n1,), apery.stratum(k)))
    claims.append(Claim("apery_max_order", ell, apery.max_order))

    family = apery.elements[1:]  # S.w was filled from the family at build time
    claims.append(Claim("family_size", e - 1, len(family)))
    claims.append(
        Claim("family_distinct_residues", e - 1, len({x % e for x in family}))
    )
    claims.append(Claim("family_matches_apery", tuple(sorted(apery.elements[1:])), family))

    part = nari_partition(S)
    a_expected = tuple(
        sorted({0, n2, data.s_family[(0, ell + 1)]} | {k * n1 for k in range(1, ell + 1)})
    )
    claims.append(Claim("partition_a", a_expected, part.a))
    b_expected = tuple(sorted(set(family) - set(a_expected)))
    claims.append(Claim("partition_b", b_expected, part.b))

    pf = pseudo_frobenius(S)
    claims.append(Claim("pf_max", ell * n1 - e, max(pf)))

    return ConstructionCertificate(ell=ell, claims=tuple(claims))
