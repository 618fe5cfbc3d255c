"""Registry of the stored example semigroups and their pinned invariants.

Each fixture is a JSON data file shipped with the package: a generator list
plus the invariants it is expected to satisfy (type, Hilbert prefix, symmetry
flags, Apery strata, ...).  An index file pins a sha256 per fixture, so an
edited data file is rejected at load time, and :func:`check_fixture`
recomputes every pinned invariant from scratch, as a list of
:class:`numsgps.core.Claim` records.  The data files live in the
``fixtures`` directory beside this module; the environment variable
``SEMIGROUP_FIXTURES`` points the loader at an alternative directory.

Generator lists that are usually written with a range shorthand are stored
fully expanded; their pinned Hilbert values are what certify the expansion.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .core import Claim, NumericalSemigroup, SemigroupError
from .hilbert import apery_table, decrease_levels, hilbert_through_stabilization
from .ideals import is_almost_symmetric, is_symmetric, pseudo_frobenius, semigroup_type

ENV_VAR = "SEMIGROUP_FIXTURES"


class FixtureError(SemigroupError, ValueError):
    """Unknown fixture name: an input error, exit 2."""


class FixtureIntegrityError(SemigroupError, AssertionError):
    """Fixture data does not match its pinned checksum or index entry: a regression, exit 4."""


@dataclass(frozen=True)
class Fixture:
    name: str
    note: str
    generators: tuple[int, ...]
    expected: dict

    def semigroup(self) -> NumericalSemigroup:
        return NumericalSemigroup.from_generators(self.generators)


def _fixture_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).with_name("fixtures")


def load_registry(directory: str | None = None) -> dict[str, Fixture]:
    """All fixtures by name, checksum-verified, aliases resolved.

    The directory is resolved on every call, so a later change of
    ``SEMIGROUP_FIXTURES`` takes effect; the registry is cached per directory.
    """
    return _load_registry(Path(directory) if directory else _fixture_dir())


@lru_cache(maxsize=8)
def _load_registry(base: Path) -> dict[str, Fixture]:
    index_path = base / "index.json"
    if not index_path.exists():
        raise FixtureIntegrityError(f"no fixture index at {index_path}")
    index = json.loads(index_path.read_text())

    registry: dict[str, Fixture] = {}
    for name, entry in index.get("fixtures", {}).items():
        path = base / entry["file"]
        raw = path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != entry["sha256"]:
            raise FixtureIntegrityError(f"checksum mismatch for fixture {name!r} at {path}")
        data = json.loads(raw)
        registry[name] = Fixture(
            name=name,
            note=data.get("note", ""),
            generators=tuple(data["generators"]),
            expected=data.get("expected", {}),
        )
    for alias, target in index.get("aliases", {}).items():
        if target not in registry:
            raise FixtureIntegrityError(f"alias {alias!r} points at unknown fixture {target!r}")
        registry[alias] = registry[target]
    return registry


# callers that drop cached registries keep using load_registry.cache_clear()
load_registry.cache_clear = _load_registry.cache_clear


def get_fixture(name: str) -> Fixture:
    registry = load_registry()
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise FixtureError(f"unknown fixture {name!r}; available: {known}")
    return registry[name]


def fixture_semigroup(name: str) -> NumericalSemigroup:
    return get_fixture(name).semigroup()


def check_fixture(fx: Fixture) -> list[Claim]:
    """Recompute every pinned invariant of one fixture."""
    S = fx.semigroup()
    expected = fx.expected
    claims: list[Claim] = []

    def claim(name: str, want, have):
        claims.append(Claim(name, want, have))

    if "multiplicity" in expected:
        claim("multiplicity", expected["multiplicity"], S.multiplicity)
    if "embedding_dimension" in expected:
        claim("embedding_dimension", expected["embedding_dimension"], S.embedding_dimension)
    if "frobenius" in expected:
        claim("frobenius", expected["frobenius"], S.frobenius)
    if "type" in expected:
        claim("type", expected["type"], semigroup_type(S))
    if "pseudo_frobenius" in expected:
        claim("pseudo_frobenius", tuple(expected["pseudo_frobenius"]), pseudo_frobenius(S))

    if "hilbert_prefix" in expected:
        prefix = tuple(expected["hilbert_prefix"])
        H = hilbert_through_stabilization(S, len(prefix) - 1)
        claim("hilbert_prefix", prefix, H.values[: len(prefix)])
        if "stable_value" in expected:
            claim("stable_value", expected["stable_value"], H.stable_value)
        if "decrease_levels" in expected:
            claim("decrease_levels", tuple(expected["decrease_levels"]), decrease_levels(H))

    if "symmetric" in expected:
        claim("symmetric", expected["symmetric"], is_symmetric(S))
    if "almost_symmetric" in expected:
        claim("almost_symmetric_definition", expected["almost_symmetric"],
              is_almost_symmetric(S, "definition"))
        claim("almost_symmetric_nari", expected["almost_symmetric"],
              is_almost_symmetric(S, "nari"))

    if "apery_strata" in expected:
        ap = apery_table(S)
        for k, elems in sorted(expected["apery_strata"].items(), key=lambda kv: int(kv[0])):
            claim(f"apery_stratum_{k}", tuple(elems), ap.stratum(int(k)))
        if "apery_empty_from" in expected:
            claim("apery_empty_from_holds", True,
                  ap.max_order < int(expected["apery_empty_from"]))
    return claims


def check_all_fixtures() -> dict[str, list[Claim]]:
    """Claims for each fixture by its own name (an alias names its target's fixture)."""
    fixtures = {fx.name: fx for fx in load_registry().values()}
    return {name: check_fixture(fixtures[name]) for name in sorted(fixtures)}
