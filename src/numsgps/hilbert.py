"""Apery sets, element orders and Hilbert functions of a numerical semigroup.

The Hilbert function counts H(h) = |hM \\ (h+1)M| where M is the maximal
ideal S \\ {0}.  Everything is read off the Apery vectors W_k = Ap(kM) with
respect to the multiplicity e: W_k[r] is the smallest member of kM in the
class r mod e, so kM is described exactly by e integers per level.  Between
levels each entry either stays or rises by e, and only the classes that
stayed put at the last level, the frontier, can keep another class in
place.  A generator that keeps no class at one level keeps none at any
later level, so each row costs O(e) plus one gather over the frontier times
the generators still active.  W_2 needs none: a nonzero Apery element lies
in 2M exactly when it is not a minimal generator.  The walk keeps the
offset row W_k - k e in place, which changes only on the classes that stay.
The rows give H(k) = sum(W_{k+1} - W_k) / e, which is e minus the size of
the next frontier, and the Apery strata.  A member s of the class r has
order max{k : W_k[r] <= s}, as kM + e lies in kM: ``element_order`` reads
this directly and stops at the first row above s.  ``order_table`` and
``layer_sets`` read it where the classes rise: a rise of class r at level
k, r outside Z_k, ends the element W_{k-1}[r], of order k - 1, and these
are all the members below W_K[r] for the last level K read; a member
x >= W_K[r] has order (x - D_K[r]) // e.

Stabilization is certified, not guessed: the rows stop at the reduction
index R, the first k >= 1 with W_k = W_{k-1} + e, i.e. kM = (k-1)M + e.
That identity propagates to every higher power.  Since every entry rises
by 0 or e, H(k) = e exactly when every class rises at level k + 1, that is
when k + 1 >= R.  So H(k) = e if and only if k >= R - 1, and
``stable_from`` is R - 1.

The rows are walked on demand and never kept: ``_walk(S, levels)`` reads
them only as far as a call needs, so ``hilbert_function(S, h_max)`` builds
at most h_max + 2 rows, and caches just the counts; the full walk, which
``apery_table`` and the stabilized Hilbert calls share, also keeps the
Apery orders, O(e), and is read once per semigroup.  ``layer_sets`` walks
no further than its listings need: it counts the Apery orders through
k_max in its own pass, the way the full walk does, and takes none from
``apery_table``.  A call that asks a new level count walks again from W_0.
``_from_rows`` reads its values, and each caller runs its own
certificate.  Public Hilbert calls rebuild the rows by
their definition, W_{k+1} = min+(W_k, G) over all e classes and the minimal
generators G, from W_0 = Ap(S), and insist that the H(k) read off those
agree with the walk through ``stable_from`` (h_max without one).  That
route knows neither the frontier nor W_2 off the generators, and its
H(R-1) = e and H(R-2) < e pin R, so every later value.  The witness instead
checks each duplication's rows against its parent's certified H pushed
through the duplication formula, and runs the oracle on the seed only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from typing import Iterator

import numpy as np

from .core import (
    _GATHER_CELLS, LISTING_LIMIT, NotMember, NumericalSemigroup, SemigroupError, SizeLimitError,
    _certify, _maximal, _min_plus, _min_plus_steps, _narrow,
)


class NotStabilized(SemigroupError, ValueError):
    """The Hilbert values were not computed through stabilization: an input error, exit 2."""


# ---------------------------------------------------------------------------
# Apery vectors of the powers kM (production route)
# ---------------------------------------------------------------------------

def _rising_at_two(S: NumericalSemigroup) -> np.ndarray:
    """The classes where W_2 = W_1 + e, read with no gather: class 0 and the g mod e for g in G.

    A nonzero Apery element lies in 2M exactly when it is not a minimal
    generator, each minimal generator g != e is the Apery element of its
    class, and e is not in 2M.  So W_2 = Ap(2M) is W_1 = Ap(M), which is W_0
    with W_1[0] = e, plus e on class 0 and the classes g mod e.  This leans
    on ``S.min_gens`` being minimal.
    """
    return np.array(S.min_gens, dtype=np.int64) % S.multiplicity  # e itself lands on class 0


def _second_power(S: NumericalSemigroup) -> np.ndarray:
    """W_2 = Ap(2M): W_1 plus e on the classes of :func:`_rising_at_two`."""
    row = _maximal(S.w)
    row[_rising_at_two(S)] += S.multiplicity
    return row


def _levels(S: NumericalSemigroup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (D_k, Z_k) for k = 0, ..., R: the offset row D_k = W_k - k e and the frontier mask.

    W_k = Ap(kM) with respect to e, 0M = S.  (k+1)M lies in kM and contains
    kM + e, and both entries share a class, so W_{k+1}[r] is W_k[r] or
    W_k[r] + e.  It is W_k[r] exactly when some class s and minimal
    generator g with s + g = r (mod e) have W_k[s] + g = W_k[r], since
    (k+1)M = kM + G and kM + g lies in kM.  If W_k[s] = W_{k-1}[s] + e, then
    W_k[s] + g >= W_k[r] + e, as (k-1)M + g lies in kM; so only the frontier
    Z_k = {s : W_k[s] = W_{k-1}[s]} can keep a class, and g = e never does.
    W_1 = Ap(M) is W_0 with W_1[0] = e, so Z_1 = {r != 0}.  W_2 = Ap(2M)
    needs no gather, so Z_2 is Z_1 off the classes of :func:`_rising_at_two`.
    R is the reduction index, the first k >= 1 with Z_k empty, that is
    W_k = W_{k-1} + e (kM = (k-1)M + e); from there on every row is the
    previous one plus e.  Z_0 is every class, vacuously.

    Call g active at level k if W_k[s] + g = W_k[(s + g) mod e] for some s,
    which then lies in Z_k.  A generator that is not active at level k is
    not active at any later level: A_{k+1} lies in A_k.  Let
    W_{k+1}[s'] + g = W_{k+1}[r'] = x and, as (k+1)M = kM + G, write
    W_{k+1}[s'] = z + h with z in kM and h in G.  If W_k[z mod e] <= z - e,
    then W_k[z mod e] + h + g lies in (k+2)M, in the class of x and below
    x, against the minimality of x in (k+1)M; so W_k[z mod e] = z.
    u = z + g lies in (k+1)M; if W_k[u mod e] <= u - e, then
    W_k[u mod e] + h lies in (k+1)M below x in its class; so
    W_k[u mod e] = u.  Hence W_k[z mod e] + g = W_k[u mod e], and g lies in
    A_k.  So level 2 gathers over G \\ {e}, and every later level only over
    the generators that kept some class at the level before.  Level k >= 2
    costs O(e) plus |Z_k| |A_{k-1}| gathered cells, with G \\ {e} in place of
    A_1, and a semigroup with nu = e gathers none.

    The walk keeps D_k = W_k - k e in one row and tests
    D[(s + g) mod e] - g = D[s], gathering D at s + (g mod e) < 2e with
    wrapping.  Each level changes only the kept classes: D_{k+1} is D_k minus
    e on Z_{k+1}, subtracted in place on the frontier's class indices, which
    the level finds once and then gathers over.  W_k >= k e
    and W_k <= W_0 + k e, as W_0[r] + k e lies in kM, so D_k lies in
    [0, max(W_0)] and a row entry minus a generator in
    [-max(G), max(W_0)]; the minimal generators other than e are Apery
    elements, so max(W_0) covers the generators too.  The walk runs in the
    dtype :func:`core._narrow` picks for that range; class indices stay
    int64.  Both yielded arrays are the walk's own buffers, overwritten at
    the next level, so memory stays O(e) for any R.  Besides S.w the walk
    holds D, the mask Z_k, one frontier of int64 class indices, released
    before the next one is built, the frontier's entries of D while they are
    lowered, and the gather blocks: 25 e bytes in int64 plus the blocks,
    whatever the level.
    """
    e, top = S.multiplicity, S.min_gens[-1]
    dt = _narrow(-top, int(S.w.max()))
    gens = np.array(S.min_gens[1:], dtype=np.int64)
    steps, shifts = gens % e, gens.astype(dt)
    D, inZ = S.w.astype(dt), np.ones(e, dtype=bool)
    # e as a scalar of the walk's dtype: a Python int doubles the fixed cost of the ufunc call
    e_dt = dt(e)
    yield D, inZ
    inZ[0] = False
    for level in count(1):
        frontier = inZ.nonzero()[0]
        D[frontier] -= e_dt
        yield D, inZ
        if not len(frontier):  # W_R was just yielded; Z_1 is empty only for e = 1, where R = 1
            return
        if level == 1:
            inZ[_rising_at_two(S)] = False
            continue
        inZ.fill(False)
        rows = max(1, _GATHER_CELLS // len(shifts))
        for lo in range(0, len(frontier), rows):
            s = frontier[lo : lo + rows, None]
            r = s + steps
            # r < 2e, so wrapping names the class r mod e, for take() and put() alike
            gap = np.take(D, r, mode="wrap")
            gap -= shifts
            hit = gap == D[s]
            inZ.put(r[hit], True, mode="wrap")  # a class may be kept from several blocks
            seen = np.logical_or.reduce(hit, axis=0)
            active = seen if lo == 0 else active | seen
        del frontier, s  # the last block's view s would keep this frontier alive through the next
        if not np.logical_and.reduce(active):
            steps, shifts = steps[active], shifts[active]


@lru_cache(maxsize=64)  # shared by every call on the same semigroup and level count
def _walk(S: NumericalSemigroup, levels: int | None) -> tuple[tuple[int, ...], np.ndarray | None]:
    """H(0..levels-1) off the frontiers Z_1..Z_levels, or through Z_R with the Apery orders if None.

    ``counts[j]`` is H(j) = sum(W_{j+1} - W_j) / e, the number of classes
    that rise at level j + 1, so e - |Z_{j+1}|.  The walk ends at W_R, where
    H(R-1) = e first.  Only the full walk counts ``apery_orders[r]``,
    #{j >= 1 : W_j[r] = W_0[r]}, the levels j through which r lies in every
    frontier Z_1..Z_j: its one reader, :func:`apery_table`, asks for all of
    them, and a bounded walk keeps None, so it retains no O(e) vector.  Both
    results are shared, so both are read-only.
    """
    e, counts, apery_orders = S.multiplicity, [], None
    if levels is None:
        pristine, apery_orders = np.ones(e, dtype=bool), np.zeros(e, dtype=np.int64)
    for _, inZ in islice(_levels(S), 1, None if levels is None else levels + 1):
        counts.append(e - int(np.count_nonzero(inZ)))
        if apery_orders is not None:
            pristine &= inZ
            apery_orders += pristine
    if apery_orders is not None:
        apery_orders.flags.writeable = False
    return tuple(counts), apery_orders


def order_table(S: NumericalSemigroup, bound: int) -> np.ndarray:
    """ord(s) for every s in [0, bound); -1 marks non-members.  SizeLimitError past LISTING_LIMIT.

    Reads W_0 through W_K, K = min(R, (bound - 1) // e), as W_k >= k e (W_0
    alone if bound <= 0).  A rise of class r at level k ends the element
    W_{k-1}[r] = D_k[r] + (k - 1) e of order k - 1, with D widened to int64
    first as the walk may run in int16; these are the members below W_K[r].
    Every member x >= W_K[r] has order (x - D_K[r]) // e, and that quotient
    is at least K exactly from W_K[r] on: past W_R each e adds one order,
    and short of it x < (K + 1) e <= W_{K+1}[r] keeps x out of (K + 1)M.  So
    each level scatters its O(e) rises, and one pass over [0, bound) reads
    the rest, where testing every cell against each row, as
    :func:`element_order` tests its one s, would cost O(bound) a level.
    """
    if bound > LISTING_LIMIT:
        raise SizeLimitError(f"order table of {bound} elements exceeds the supported size 2**22")
    e, orders = S.multiplicity, np.full(max(bound, 0), -1, dtype=np.int64)
    for k, (D, inZ) in enumerate(islice(_levels(S), max(1, (bound - 1) // e + 1))):
        x = D[~inZ].astype(np.int64) + (k - 1) * e
        orders[x[x < bound]] = k - 1
    tail = np.arange(len(orders), dtype=np.int64)
    tail = (tail - D[tail % e]) // e  # at least K exactly from W_K[r] on
    return np.where(tail >= k, tail, orders)


def element_order(S: NumericalSemigroup, s: int) -> int:
    """Largest number of nonzero summands expressing s; ord(0) = 0.

    A member s of the class r lies in kM exactly when s >= W_k[r], as
    kM + e lies in kM, so ord(s) = max{k : W_k[r] <= s}.  W_k[r] rises with
    k, so the walk stops at the first row with W_k[r] = D_k[r] + k e > s and
    reads min(ord(s) + 2, R + 1) rows.  A walk that ends at W_R with
    W_R[r] <= s reads (s - D_R[r]) // e, as every later row is the one
    before plus e.  The row entries are read as Python ints, so no sum
    wraps, whatever the size of s.
    """
    if not S.contains(s):
        raise NotMember(f"{s} is not an element of {S!r}")
    e, r = S.multiplicity, s % S.multiplicity
    for k, (D, _) in enumerate(_levels(S)):
        if int(D[r]) + k * e > s:
            return k - 1
    return (s - int(D[r])) // e


# ---------------------------------------------------------------------------
# ideal powers by the dense recurrence (oracle route)
# ---------------------------------------------------------------------------

def hilbert_by_set_construction(S: NumericalSemigroup, h_max: int) -> list[int]:
    """H(0..h_max) via |kM \\ (k+1)M| on the Apery vectors of explicitly built ideal powers.

    (k+1)M = kM + G for the minimal generators G, since M = G + S and kM is
    an ideal, so W_{k+1} = Ap((k+1)M) is min+(W_k, G) over all e classes,
    starting from W_0 = Ap(S).  kM \\ (k+1)M holds (W_{k+1}[r] - W_k[r]) / e
    members of the class r, so H(k) = sum(W_{k+1} - W_k) / e.  One kernel
    call runs every level in O(e) memory; W_k <= W_0 + k e bounds its dtype.

    Only the row sums are kept, one Python int a level: each row is summed as
    the kernel yields it and dropped before the next is built, so besides
    S.w the oracle holds the kernel's windows [W_k, W_k] and one row, at
    most 24 e bytes plus one gather block, or past _GATHER_CELLS classes
    W_k, the kernel's spare row and one row, 24 e bytes.  A row sum wraps
    mod 2**64 in int64 once the values grow large, but each level adds
    e H(k) <= e**2 < 2**63 to it, so the difference of two sums taken
    mod 2**64 is exact.
    """
    rows = _min_plus_steps(S.w, S.min_gens, h_max + 1)
    sums = [int(S.w.sum()), *map(int, map(np.ndarray.sum, rows))]
    return [(nxt - row) % (1 << 64) // S.multiplicity for row, nxt in zip(sums, sums[1:])]


# ---------------------------------------------------------------------------
# Hilbert function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertFunction:
    """Values H(0), ..., H(h_max) plus a certified stabilization marker.

    ``stable_from`` is the smallest index from which the function is the
    constant e (the multiplicity); None when stabilization was not reached
    within the computed range.
    """

    values: tuple[int, ...]
    stable_from: int | None

    @property
    def h_max(self) -> int:
        return len(self.values) - 1

    @property
    def stable_value(self) -> int | None:
        if self.stable_from is None:
            return None
        return self.values[self.stable_from]

    def value_at(self, h: int) -> int:
        if h < 0:
            raise ValueError("Hilbert function is defined for h >= 0")
        if h <= self.h_max:
            return self.values[h]
        if self.stable_from is not None:
            return self.values[self.stable_from]
        raise NotStabilized(f"H({h}) not computed and no stable tail is certified")

    def to_json(self) -> dict:
        return {"values": list(self.values), "stable_from": self.stable_from}


def _from_rows(S: NumericalSemigroup, h_max: int, extend: bool) -> HilbertFunction:
    """H(0..h_max) off the rows, through ``stable_from`` as well if ``extend``; unchecked.

    The walk runs to h_max + 1 levels, or to W_R if ``extend``.  SizeLimitError
    past LISTING_LIMIT levels, before any row is built.
    """
    if h_max > LISTING_LIMIT:
        raise SizeLimitError(f"h_max {h_max} exceeds the supported range 2**22")
    counts = _walk(S, None if extend else h_max + 1)[0]
    # stable_from is R - 1 once W_R is read; short of it, R - 1 >= len(counts) > h_max
    start = len(counts) - 1 if counts[-1] == S.multiplicity else len(counts)
    h_max = max(h_max, start) if extend else h_max
    values = tuple(counts[: h_max + 1]) + (S.multiplicity,) * (h_max + 1 - len(counts))
    return HilbertFunction(values=values, stable_from=start if start <= h_max else None)


def _oracle_checked(S: NumericalSemigroup, H: HilbertFunction) -> HilbertFunction:
    """H, once the oracle agrees through ``stable_from`` (h_max without one), which pins R."""
    n = H.h_max if H.stable_from is None else H.stable_from
    _certify(list(H.values[: n + 1]) == hilbert_by_set_construction(S, n),
             "Apery-row and set-construction Hilbert values disagree")
    return H


def hilbert_function(S: NumericalSemigroup, h_max: int) -> HilbertFunction:
    """Exact H(0..h_max) with a certified ``stable_from`` marker."""
    if h_max < 1:
        raise ValueError("h_max must be at least 1")
    return _oracle_checked(S, _from_rows(S, h_max, extend=False))


def hilbert_through_stabilization(S: NumericalSemigroup, h_min: int = 1) -> HilbertFunction:
    """Hilbert values extended far enough that ``stable_from`` is present."""
    return _oracle_checked(S, _from_rows(S, max(h_min, 1), extend=True))


def decrease_levels(H: HilbertFunction) -> tuple[int, ...]:
    """All levels h with H(h-1) > H(h), ascending.

    Requires a certified stable tail: past ``stable_from`` the function is
    constant, so the scan stops there and the returned list is complete.
    """
    if H.stable_from is None:
        raise NotStabilized("Hilbert function not computed through stabilization")
    return tuple(h for h in range(1, H.stable_from + 1) if H.values[h - 1] > H.values[h])


# ---------------------------------------------------------------------------
# Apery set and layer sets
# ---------------------------------------------------------------------------

def _grouped(keys: np.ndarray, values: np.ndarray) -> dict[int, tuple[int, ...]]:
    """The values under each key, ascending, keys ascending: one lexsort, one split."""
    order = np.lexsort((values, keys))
    keys, starts = np.unique(keys[order], return_index=True)
    groups = np.split(values[order], starts[1:])
    return {k: tuple(v.tolist()) for k, v in zip(keys.tolist(), groups)}


def _certify_order_one(S: NumericalSemigroup, apery_orders: np.ndarray) -> None:
    """The Apery elements of order 1, ``apery_orders[r] == 1``, must be those outside Ap(2M).

    The walk reads W_2 off the generators, so it trusts ``S.min_gens`` to be
    minimal; one gathered Ap(2M) = min+(Ap(M), G) over all e classes does not.
    """
    ap2 = _min_plus(_maximal(S.w), S.min_gens)
    _certify(np.array_equal(apery_orders[1:] == 1, ap2[1:] != S.w[1:]),
             "order-1 Apery stratum differs from the Apery elements outside the gathered Ap(2M)")


@dataclass(frozen=True)
class AperyTable:
    """The e smallest members per residue class mod e, with their orders."""

    elements: tuple[int, ...]
    orders: dict[int, int]
    strata: dict[int, tuple[int, ...]]

    @property
    def max_order(self) -> int:
        return max(self.orders.values())

    def stratum(self, k: int) -> tuple[int, ...]:
        return self.strata.get(k, ())

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "orders": {str(a): o for a, o in sorted(self.orders.items())},
            "strata": {str(k): list(v) for k, v in sorted(self.strata.items())},
        }


def apery_table(S: NumericalSemigroup) -> AperyTable:
    """Apery set of S with respect to the multiplicity, stratified by order.

    An Apery element a = W_0[r] lies in kM exactly when W_k[r] = W_0[r].
    """
    apery_orders = _walk(S, None)[1]
    ascending = S.w.argsort()  # the Apery elements are distinct, one a class
    orders = dict(zip(S.w[ascending].tolist(), apery_orders[ascending].tolist()))
    elements = tuple(orders)
    strata = _grouped(apery_orders[1:], S.w[1:])  # class 0 holds 0, of order 0

    e = S.multiplicity
    _certify(len(elements) == e and elements[0] == 0, "malformed Apery set")
    _certify(strata.get(1, ()) == tuple(g for g in S.min_gens if g != e),
             "order-1 Apery stratum differs from the minimal generators")
    _certify_order_one(S, apery_orders)
    return AperyTable(elements=elements, orders=orders, strata=strata)


@dataclass(frozen=True)
class LayerSets:
    """The C_k / D_k layer sets that control consecutive Hilbert differences.

    D_h collects members whose order jumps past h when e is added
    (ord(s) = h-1 but ord(s+e) > h); D_h^t refines by the landing order t.
    C_k collects order-k members s with s - e outside (k-1)M.  For every k,
    H(k-1) - H(k) = |D_k| - |C_k|.
    """

    c_sets: dict[int, tuple[int, ...]]
    d_sets: dict[int, tuple[int, ...]]
    d_refined: dict[int, dict[int, tuple[int, ...]]]

    def to_json(self) -> dict:
        return {
            "C": {str(k): list(v) for k, v in sorted(self.c_sets.items())},
            "D": {str(k): list(v) for k, v in sorted(self.d_sets.items())},
            "D_t": {
                str(k): {str(t): list(v) for t, v in sorted(sub.items())}
                for k, sub in sorted(self.d_refined.items())
            },
        }


def layer_sets(S: NumericalSemigroup, k_max: int) -> LayerSets:
    """Explicit C_k, D_k and D_k^t for 2 <= k <= k_max, off where each class's runs of stays end.

    Class r rises at level k when r is not in Z_k, and W_k[r] = W_0[r] + e
    times its rises through k, so ord(W_0[r] + j e) is one less than the
    level of its (j+1)-th rise.  Hence C_k = {W_k[r] : r in Z_k \\ Z_{k+1}}:
    order k, and s - e of order below k - 1 or off S.  And D_h^t is
    {W_{h-1}[r] : r rises at h, stays through t and rises at t + 1}: order
    h - 1, and s + e = W_t[r] of order t > h.  So one pass over the frontiers
    keeps last[r], the level of r's latest rise (0 before any), and reads a
    run of stays h + 1, ..., k - 1 where it ends, at a rise at level k with
    h = last[r] < k - 1.  There s = W_{k-1}[r] = D_k[r] + (k - 1) e, widened
    to int64 first as the walk may run in int16, lies in C_{k-1}; s - e lies
    in D_h^{k-1} if h >= 2; and s is the Apery element of order k - 1 if
    h = 0.  Each element arises once.  Only the run ends with h <= k_max are
    kept, at most e (k_max + 1), and the pass stops past level k_max once no
    class that last rose at a level in 2..k_max still stays.  Every class
    rises at W_R, so it reads at most R + 1 levels at O(e) each.

    The run ends are grouped once (C_k by k, D_k by h, D_k^t by (h, t)), and
    one grouping of Ap_k and the D_h^k + e, h < k, checks that they split C_k.
    That check reads the frontiers a second time: the same pass counts each
    class's pristine run, its stays from level 1 up to its first rise, as
    :func:`_walk` counts the Apery orders, and a class of order k <= k_max
    rises at level k + 1, within the levels read, so Ap_k is the S.w of the
    classes that count k.  The order-1 count is checked against one gathered
    Ap(2M), as in :func:`apery_table`, so a generator that is not minimal
    raises here too.
    SizeLimitError past LISTING_LIMIT cells of e (k_max + 1), before any level is read.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    e = S.multiplicity
    if e * (k_max + 1) > LISTING_LIMIT:
        raise SizeLimitError(f"layer grid of {e * (k_max + 1)} cells"
                             " exceeds the supported size 2**22")
    last, ends = np.zeros(e, dtype=np.int64), []
    # level 0 keeps every class and is no run of stays: the counts start at -1
    pristine, apery_orders = np.ones(e, dtype=bool), np.full(e, -1, dtype=np.int64)
    for k, (D, inZ) in enumerate(_levels(S)):
        r = (~inZ & (last < k - 1) & (last <= k_max)).nonzero()[0]  # runs of stays ending at k - 1
        ends.append((last[r], np.full(len(r), k - 1), D[r].astype(np.int64) + (k - 1) * e))
        last[~inZ] = k
        pristine &= inZ
        apery_orders += pristine
        if k > k_max and not ((last >= 2) & (last <= k_max)).any():
            break
    _certify_order_one(S, apery_orders)
    rise, order, elems = map(np.concatenate, zip(*ends))  # (h, k - 1, W_{k-1}[r]) per run end
    in_c = (order >= 2) & (order <= k_max)
    c_grouped = _grouped(order[in_c], elems[in_c])
    in_d = rise >= 2
    d_elems, d_levels, landing = elems[in_d] - e, rise[in_d], order[in_d]
    d_grouped = _grouped(d_levels, d_elems)
    base = int(landing.max(initial=0)) + 1  # above every t, so k * base + t is one-to-one
    d_refined: dict[int, dict[int, tuple[int, ...]]] = {k: {} for k in range(2, k_max + 1)}
    for key, v in _grouped(d_levels * base + landing, d_elems).items():
        d_refined[key // base][key % base] = v

    in_ap, lands = (apery_orders >= 2) & (apery_orders <= k_max), landing <= k_max
    pieces = _grouped(np.r_[apery_orders[in_ap], landing[lands]],
                      np.r_[S.w[in_ap], d_elems[lands] + e])
    for k in sorted(pieces.keys() | c_grouped.keys()):
        piece = pieces.get(k, ())
        _certify(len(set(piece)) == len(piece), f"C_{k} pieces overlap")
        _certify(piece == c_grouped.get(k, ()), f"C_{k} does not match its decomposition")
    return LayerSets(c_sets={k: c_grouped.get(k, ()) for k in d_refined},
                     d_sets={k: d_grouped.get(k, ()) for k in d_refined}, d_refined=d_refined)
