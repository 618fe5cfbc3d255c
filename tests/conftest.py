"""Shared helpers: independent brute-force oracles and random semigroups.

The oracles here deliberately avoid the package's numpy tables.  Membership
is a breadth-first closure over plain sets, Hilbert values come from literal
sumsets of Python sets, and orders from a dictionary DP, so that agreement
with the library is a genuine two-route check.  ``dense_apery_rows`` is the
exception: it keeps the dense min-plus recurrence for the Apery rows as the
reference that the frontier walk in ``numsgps.hilbert`` is compared against,
and ``brute_active_generators`` reads the generators that keep a class off
those rows.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import numsgps
from numsgps import LayerSets, NumericalSemigroup
from numsgps.core import _min_plus


def brute_members(gens, bound: int) -> set[int]:
    """All nonnegative combinations of gens below bound, by BFS closure."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y < bound and y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def brute_conductor(members: set[int], e: int, bound: int) -> int:
    run = 0
    for x in range(bound):
        run = run + 1 if x in members else 0
        if run == e:
            return x - e + 1
    raise AssertionError("bound too small for the brute conductor")


def brute_hilbert(gens, h_max: int) -> list[int]:
    """H(0..h_max) by literally building the sumsets hM as Python sets."""
    gens = sorted(set(gens))
    e = gens[0]
    probe = brute_members(gens, 4 * max(gens) * (1 + max(gens) // e) + 4 * e)
    c = brute_conductor(probe, e, 4 * max(gens) * (1 + max(gens) // e) + 4 * e)
    bound = c + (h_max + 2) * e
    members = {x for x in brute_members(gens, bound)}
    maximal = sorted(members - {0})
    levels = [set(members)]
    for _ in range(h_max + 1):
        prev = levels[-1]
        levels.append({a + m for a in prev for m in maximal if a + m < bound})
    values = []
    for h in range(h_max + 1):
        safe = c + (h + 1) * e  # every order-h element lies below this
        values.append(len({x for x in levels[h] - levels[h + 1] if x < safe}))
    return values


def brute_orders(gens, bound: int) -> dict[int, int]:
    """ord(s) for members below bound, via a dictionary DP."""
    members = sorted(brute_members(gens, bound))
    orders = {0: 0}
    for s in members[1:]:
        orders[s] = 1 + max(orders[s - g] for g in gens if s - g in orders)
    return orders


def brute_layer_sets(gens, k_max: int) -> LayerSets:
    """C_k, D_k and D_k^t for 2 <= k <= k_max, straight from their definitions.

    D_k: ord(s) = k - 1 and ord(s + e) > k, split by t = ord(s + e); C_k:
    ord(s) = k and s - e outside (k-1)M, i.e. ord(s - e) < k - 1 with -1 off
    S.  Members of order <= k_max, and s + e for those of order < k_max, lie
    below c + (k_max + 1) e.
    """
    gens = sorted(set(gens))
    e = gens[0]
    probe_bound = (e + 1) * max(gens) + e  # the Frobenius number is below (e - 1) max(gens)
    c = brute_conductor(brute_members(gens, probe_bound), e, probe_bound)
    orders = brute_orders(gens, c + (k_max + 2) * e)
    c_sets, d_sets, d_refined = {}, {}, {}
    for k in range(2, k_max + 1):
        c_sets[k] = tuple(s for s, o in sorted(orders.items())
                          if o == k and orders.get(s - e, -1) < k - 1)
        d_sets[k] = tuple(s for s, o in sorted(orders.items())
                          if o == k - 1 and orders[s + e] > k)
        refined: dict[int, tuple[int, ...]] = {}
        for s in d_sets[k]:
            refined[orders[s + e]] = refined.get(orders[s + e], ()) + (s,)
        d_refined[k] = dict(sorted(refined.items()))
    return LayerSets(c_sets=c_sets, d_sets=d_sets, d_refined=d_refined)


def dense_apery_rows(S: NumericalSemigroup) -> list[np.ndarray]:
    """W_0, ..., W_R by W_{k+1}[r] = min_g W_k[(r - g) mod e] + g over all e classes.

    Stops at the first k >= 1 with W_k = W_{k-1} + e, the reduction index.
    """
    e = S.multiplicity
    rows = [S.w]
    while True:
        rows.append(_min_plus(rows[-1], S.min_gens))
        if np.array_equal(rows[-1], rows[-2] + e):
            return rows


def walk_rows(S: NumericalSemigroup) -> list[np.ndarray]:
    """W_0, ..., W_R rebuilt off the walk's offset rows, W_k = D_k + k e, as int64."""
    e = S.multiplicity
    return [D.astype(np.int64) + k * e for k, (D, _) in enumerate(numsgps.hilbert._levels(S))]


def brute_active_generators(S: NumericalSemigroup, rows: list[np.ndarray]) -> list[set[int]]:
    """A_k = {g in G : W_k[s] + g = W_k[(s + g) mod e] for some class s}, one set per row W_k."""
    e = S.multiplicity
    return [{g for g in S.min_gens if (W + g == np.roll(W, -(g % e))).any()} for W in rows]


def count_gathers(monkeypatch) -> list[int]:
    """Wrap ``np.take`` for the test; the one-element list counts the cells it gathers."""
    cells = [0]
    take = np.take

    def counted(a, indices, *args, **kwargs):
        cells[0] += np.size(indices)
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", counted)
    return cells


def record_narrow(monkeypatch, *modules) -> list[type]:
    """Wrap ``_narrow`` in ``modules`` for the test; the list records each dtype it picks."""
    chosen = []
    narrow = numsgps.core._narrow

    def recorded(lo, hi):
        chosen.append(narrow(lo, hi))
        return chosen[-1]

    for module in modules:
        monkeypatch.setattr(module, "_narrow", recorded)
    return chosen


@contextmanager
def traced_memory(*caches):
    """Trace the block's allocations with ``caches`` cleared before and after it.

    On a normal exit the yielded record holds ``peak``, the tracemalloc peak in
    bytes, and ``retained``, the bytes still traced less those traced at entry.
    """
    record = SimpleNamespace()
    for cache in caches:
        cache.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        yield record
        current, record.peak = tracemalloc.get_traced_memory()
        record.retained = current - before
    finally:
        tracemalloc.stop()
        for cache in caches:
            cache.cache_clear()


def random_semigroup(rng: random.Random, max_mult: int = 9, genus_cap: int | None = None,
                     tries: int = 200) -> NumericalSemigroup:
    for _ in range(tries):
        e = rng.randint(2, max_mult)
        extras = rng.sample(range(e + 1, 4 * e), k=rng.randint(1, min(4, 3 * e - 2)))
        gens = [e] + extras
        if math.gcd(*gens) != 1:
            continue
        S = NumericalSemigroup.from_generators(gens)
        if genus_cap is not None and S.genus > genus_cap:
            continue
        return S
    raise AssertionError("could not sample a random semigroup")


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports this checkout of numsgps.

    Output is captured unless ``kwargs`` redirect it.
    """
    src = str(Path(numsgps.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=120, **kwargs)


def run_script(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout of numsgps."""
    return run_python(*flags, "-c", script)


def run_capped(script: str, cap: int = 1 << 30) -> subprocess.CompletedProcess:
    """``run_script`` with the address space capped at ``cap`` bytes."""
    prelude = (
        "import os, resource\n"
        "# one BLAS thread: a thread pool reserves address space of its own\n"
        'os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")\n'
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
    )
    return run_script(prelude + textwrap.dedent(script))


def run_capped_cli(argv: list[str], cap: int = 1 << 30) -> subprocess.CompletedProcess:
    """Run the CLI on ``argv`` under ``run_capped``."""
    return run_capped(f"import sys\nfrom numsgps.cli import main\nsys.exit(main({argv!r}))\n", cap)


def _exit_under_python_O(patch: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI under ``python -O`` after executing ``patch``."""
    script = (
        "import sys\n"
        "import numsgps.duplication, numsgps.hilbert\n"
        "from numsgps.cli import main\n"
        f"{patch}\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return run_script(script, "-O")


@pytest.fixture
def rng():
    return random.Random(20240817)
