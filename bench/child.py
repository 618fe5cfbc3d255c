"""One benchmark process: a set-up sample, a pass over a workload, or the probes.

Run by ``bench/run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``, so no ``lru_cache`` of the library carries hits from
one pass to the next.  Prints one JSON object on its last line.

    python3 bench/child.py setup
    python3 bench/child.py pass WORKLOAD SEED TRACE
    python3 bench/child.py probes
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# Address-space cap of the sparse_gens passes and of the probes, and the
# deadline of one item.  Both apply to this process only.
MEMORY_CAP = 1024 << 20
ITEM_DEADLINE_S = 30


class ItemDeadline(Exception):
    """An item ran past ITEM_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise ItemDeadline(f"item ran past {ITEM_DEADLINE_S} s")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup() -> tuple[float, float]:
    """Import numsgps and load the checksum-verified fixture registry."""
    start = perf_counter()
    import numsgps

    imported = perf_counter()
    if not Path(numsgps.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported numsgps from {numsgps.__file__}, not from {SRC}")
    numsgps.load_registry()
    end = perf_counter()
    return end - start, end - imported


def reference_s() -> float:
    """Time of two fixed kernels that use no numsgps code: an interpreter
    loop and building a tuple of fresh ints.  Run before the first item and
    after each one, it slows down with the host as the items do, each kernel
    tracking some workloads better than the other.  It adds 1 to 1.5 MB to
    peak_rss_mb of the witness and construction passes (about 3%) and
    nothing measurable to that of sparse_gens."""
    start = perf_counter()
    counts, total = {}, 0
    for i in range(30_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
        total += i * i % 13
    ints = tuple(x * 3 + 1000 for x in range(50_000) if x % 5)
    del ints
    return perf_counter() - start


def _run_item(run, check, item) -> tuple[float, str, object]:
    """(seconds, outcome, summary) of one item; outcome is ok or failed:<why>."""
    signal.setitimer(signal.ITIMER_REAL, ITEM_DEADLINE_S)
    try:
        start = perf_counter()
        result = run(item)
        elapsed = perf_counter() - start
    except (MemoryError, ItemDeadline) as exc:
        return perf_counter() - start, f"failed:{type(exc).__name__}", None
    except Exception as exc:
        return perf_counter() - start, f"failed:{type(exc).__name__}: {exc}", None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        return elapsed, "ok", check(item, result)
    except Exception as exc:
        return elapsed, f"failed:{type(exc).__name__}: {exc}", None


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    if workload == "sparse_gens":
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    setup_s, registry_s = _setup()
    import numsgps
    import workloads

    pf_cache = numsgps.pseudo_frobenius
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run, check = workloads.runner(workload)
    item_s, failures, summaries, ref_s = [], [], [], [reference_s()]
    for item in workloads.items(workload, seed):
        elapsed, outcome, summary = _run_item(run, check, item)
        ref_s.append(reference_s())
        item_s.append(elapsed)
        summaries.append(summary)
        if outcome != "ok":
            failures.append(f"{item!r}: {outcome}")
    digest = hashlib.sha256(json.dumps(summaries, separators=(",", ":")).encode()).hexdigest()
    out = {
        "setup_s": setup_s,
        "registry_s": registry_s,
        "wall_s": sum(item_s),
        "item_s": item_s,
        "ref_s": ref_s,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        info = pf_cache.cache_info()
        out["trace"] = tracer.metrics(out["wall_s"])
        out["trace"]["ideals.pf_cache.hits"] = info.hits
        out["trace"]["ideals.pf_cache.lookups"] = info.hits + info.misses
        out["trace"]["ideals.pf_cache.hit_ratio"] = info.hits / max(info.hits + info.misses, 1)
        out["trace"]["fixtures.load_registry.s"] = registry_s
    return out


def run_probes() -> dict:
    """The known-hard sparse_gens inputs, under the memory cap and deadline."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    _setup()
    import workloads

    probes = []
    for gens in workloads.PROBES:
        elapsed, outcome, _ = _run_item(workloads.sparse_gens_run, workloads.sparse_gens_check, gens)
        probes.append({"gens": list(gens), "s": elapsed, "outcome": outcome})
    return {"probes": probes, "peak_rss_mb": _peak_rss_mb()}


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    mode = argv[0]
    try:
        if mode == "setup":
            setup_s, registry_s = _setup()
            out = {"setup_s": setup_s, "registry_s": registry_s}
        elif mode == "pass":
            out = run_pass(argv[1], int(argv[2]), argv[3] == "1")
        elif mode == "probes":
            out = run_probes()
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
