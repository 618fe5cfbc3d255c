"""The three benchmark workloads: seeded inputs, the timed calls, the checks.

Each workload is a fixed-length list of items made from the seed alone.  An
item is timed around its library calls only; the checks that follow recompute
independent invariants from the results and raise ``CheckFailed`` instead of
using ``assert``, so they also hold under ``python -O``.  Every item returns a
small JSON-able summary of its outputs, which feeds the per-pass digest.

Importing this module imports ``numsgps``; the benchmark times that import
separately, before the first item.
"""

from __future__ import annotations

import math
import random

import numsgps as ns

class CheckFailed(Exception):
    """A result contradicts an invariant the benchmark recomputes."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# witness: gorenstein_witness over levels 2..10
# ---------------------------------------------------------------------------

# (level, i0): gorenstein_witness(level, drop) runs i0 maximal-ideal
# duplications, and i0 depends on drop.bit_length() alone, so every drop the
# seed draws from the band below costs the same.
WITNESS_PLAN = (
    (2, 2), (3, 3), (4, 2), (5, 2), (6, 2), (7, 1), (8, 1), (9, 1), (10, 1),
)


def witness_items(rng: random.Random) -> list[tuple[int, int]]:
    items = []
    for level, i0 in WITNESS_PLAN:
        if level == 2:  # i0 = bit_length(drop + 1) - 1
            lo, hi = (1 << i0) - 1, (1 << (i0 + 1)) - 2
        else:  # i0 = bit_length(drop)
            lo, hi = 1 << (i0 - 1), (1 << i0) - 1
        items.append((level, rng.randint(lo, hi)))
    return items


def witness_run(item):
    level, drop = item
    return ns.gorenstein_witness(level, drop)


def witness_check(item, report) -> list:
    level, drop = item
    chain = report.chain
    for prev, step in zip(chain, chain[1:]):
        _check(step.type == 2 * prev.type + 1,
               f"chain step {step.index}: type {step.type} != 2*{prev.type}+1")
        for h in range(1, level + 2):
            _check(step.hilbert.value_at(h) == 2 * prev.hilbert.value_at(h),
                   f"chain step {step.index}: H({h}) is not doubled")
    H = report.final_hilbert
    drop_now = H.value_at(level - 1) - H.value_at(level)
    _check(report.achieved_drop == drop_now, "achieved_drop differs from H(l-1) - H(l)")
    _check(drop_now > drop, f"drop {drop_now} does not exceed {drop}")
    T = report.final
    _check(2 * T.genus == T.frobenius + 1, "witness output is not symmetric")
    return [level, report.achieved_drop, T.multiplicity, T.embedding_dimension,
            T.frobenius, T.genus, [s.type for s in chain], list(H.values)]


# ---------------------------------------------------------------------------
# construction: verify_construction over every admissible level in 4..19
# ---------------------------------------------------------------------------

CONSTRUCTION_LEVELS = tuple(ell for ell in range(4, 20) if not ns.is_excluded_level(ell))


def construction_items(rng: random.Random) -> list[int]:
    items = list(CONSTRUCTION_LEVELS)
    rng.shuffle(items)
    return items


def construction_run(ell):
    return ns.verify_construction(ell)


def construction_check(ell, cert) -> list:
    _check(cert.ell == ell and len(cert.claims) > 0, "empty certificate")
    failed = [c.name for c in cert.failures()]
    _check(cert.all_passed, f"level {ell}: failed claims {failed}")
    return [ell, [c.to_json()["actual"] for c in cert.claims]]


# ---------------------------------------------------------------------------
# sparse_gens: few large primes, conductor far above e * nu; no Hilbert calls
# ---------------------------------------------------------------------------

SPARSE_LO, SPARSE_HI = 200, 1500
SPARSE_PAIRS = 3
SPARSE_PAIR_LO = 1000
SPARSE_TUPLES = 16
SPARSE_POOL = 6
# Known defects, run after the timed passes in their own capped process.
PROBES = ((10007, 10009), (1000003, 1000033))


def _primes_from(lo: int, count: int) -> list[int]:
    out, n = [], lo
    while len(out) < count:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def _rungs(lo: int, count: int) -> list[int]:
    return [lo + (SPARSE_HI - lo) * i // (count - 1) for i in range(count)]


def sparse_gens_items(rng: random.Random) -> list[tuple[int, ...]]:
    """Triples and quadruples on SPARSE_TUPLES rungs from 200 to 1500, then
    pairs on SPARSE_PAIRS rungs from SPARSE_PAIR_LO to 1500.  A tuple is the
    first 3 or 4 primes from its rung, the same for every seed: the conductor
    of three or four primes swings several-fold with their spacing, so drawn
    tuples would make a pass's work depend on the seed.  A pair is drawn from
    the SPARSE_POOL primes just above its rung; its conductor (p-1)(q-1)
    moves by at most a few percent with the draw."""
    tuples = [tuple(_primes_from(lo, 3 + i % 2)) for i, lo in enumerate(_rungs(SPARSE_LO, SPARSE_TUPLES))]
    pairs = [tuple(sorted(rng.sample(_primes_from(lo, SPARSE_POOL), 2)))
             for lo in _rungs(SPARSE_PAIR_LO, SPARSE_PAIRS)]
    return tuples + pairs


def sparse_gens_run(gens):
    S = ns.NumericalSemigroup.from_generators(gens)
    return S, S.frobenius, S.genus, ns.pseudo_frobenius(S), ns.is_symmetric(S)


def sparse_gens_check(gens, result) -> list:
    S, F, g, pf, sym = result
    _check(S.min_gens == tuple(gens), "distinct primes must all be minimal generators")
    _check(max(pf) == F, "F is not the largest pseudo-Frobenius number")
    _check(sym == (2 * g == F + 1), "is_symmetric disagrees with 2g = F + 1")
    if len(gens) == 2:  # Sylvester
        p, q = gens
        _check(F == p * q - p - q, "Sylvester: F != pq - p - q")
        _check(2 * g == (p - 1) * (q - 1), "Sylvester: g != (p-1)(q-1)/2")
        _check(sym and pf == (F,), "Sylvester: two generators give a symmetric semigroup")
    return [list(gens), F, g, list(pf), sym]


# ---------------------------------------------------------------------------

WORKLOADS = {
    "witness": (witness_items, witness_run, witness_check),
    "construction": (construction_items, construction_run, construction_check),
    "sparse_gens": (sparse_gens_items, sparse_gens_run, sparse_gens_check),
}


def items(workload: str, seed: int) -> list:
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))


def runner(workload: str):
    return WORKLOADS[workload][1:]
