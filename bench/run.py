"""The numsgps benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 bench/run.py --steadiness RUNS --workload W|all [--seconds T]
    python3 bench/run.py --pin SEEDS

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads and metrics are declared
in ``BENCHMARK.json``; ``bench/README.md`` says what each metric should move.

A measuring run makes passes over the workload's fixed item list for
``--seconds``, each pass in a fresh interpreter, one after another.
``--trace 0`` reports the end-to-end metrics of the untraced passes: each
item is timed against reference kernels run right after it (see
``_norm_item_s``), and set-up by the median of the passes' own set-up times.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall time, plus the
tracing overhead.  sparse_gens also runs its probes once,
after the passes.  Every pass checks its outputs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--steadiness RUNS`` makes two sets of RUNS measuring runs per workload, on
distinct seeds, and reports for each end-to-end metric the quartile spread
of each set and of both together against the metric's bound, and how far the
second set's median moved from the first's.  ``--pin SEEDS`` records the
output digests of seeds 0..SEEDS-1 in ``bench/pins.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"

CHILD_TIMEOUT_S = 90
# Best time of child.reference_s on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4);
# norm_wall_s reads as seconds on that host.
REFERENCE_S = 0.013


class BenchError(Exception):
    """The benchmark could not measure: missing sources or a crashed child."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "processor": _cpu_model(),
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(*args: str) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _norm_item_s(passes: list[dict]) -> list[float]:
    """Each item's time at the reference CPU speed, median over the passes.

    On a shared host the CPU speed changes by up to 1.7x within seconds and
    by as much from one minute to the next, so neither an item's best nor its
    median time repeats from run to run.  In the same process, fixed
    reference kernels that use no numsgps code (``child.reference_s``) run
    before the first item and after each item; an item's time divided by the
    mean of the reference times just before and just after it moves with the
    host much less.  REFERENCE_S turns the ratio back into seconds.
    """
    ratios = [[2 * t / (before + after)
               for t, before, after in zip(p["item_s"], p["ref_s"], p["ref_s"][1:])]
              for p in passes]
    return [REFERENCE_S * statistics.median(item) for item in zip(*ratios)]


def _median_pass(passes: list[dict]) -> dict:
    return sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "numsgps" / "__init__.py").is_file():
        raise BenchError(f"no numsgps sources under {ROOT / 'src'}")
    child("setup")  # byte-compiles the package once, as an install would

    untraced, traced = [], []
    start = perf_counter()
    while True:
        use_trace = trace and len(untraced) > len(traced)
        began = perf_counter()
        result = child("pass", workload, str(seed), "1" if use_trace else "0")
        (traced if use_trace else untraced).append(result)
        took = perf_counter() - began
        enough = len(untraced) >= 1 and (traced or not trace)
        if enough and perf_counter() - start + took > seconds:
            break
    probes = child("probes")["probes"] if workload == "sparse_gens" else []

    passes = untraced + traced
    items = sum(len(p["item_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    probe_failed = [p for p in probes if p["outcome"] != "ok"]
    wrong_probes = [p for p in probe_failed if p["outcome"].startswith("failed:CheckFailed")]
    digests = {p["digest"] for p in passes}
    pinned = json.loads(PINS.read_text()).get(workload, {}).get(str(seed)) if PINS.is_file() else None
    digest_ok = len(digests) == 1 and (pinned is None or digests == {pinned})

    norm = _norm_item_s(untraced)
    if trace:
        layer = dict(_median_pass(traced)["trace"])
        layer["trace.overhead_frac"] = sum(_norm_item_s(traced)) / sum(norm) - 1
        layer["reference.s"] = statistics.median(r for p in traced for r in p["ref_s"])
        layer["probe.failed"] = len(probe_failed)
        layer["probe.s"] = sum(p["s"] for p in probes)
        values = {m["name"]: (layer[m["name"]], m["unit"]) for m in _spec()["per_layer"]}
    else:
        e2e = {
            # every pass first imports numsgps and loads the registry, as set-up does
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "norm_wall_s": sum(norm),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            # per pass, so that the probes weigh the same however many passes ran
            "ok_frac": ((items - len(failures)) / len(passes) + len(probes) - len(probe_failed))
                       / (items / len(passes) + len(probes)),
        }
        values = {m["name"]: (e2e[m["name"]], m["unit"]) for m in _spec()["end_to_end"]}

    print(f"machine: {json.dumps(machine())}")
    print(f"{workload} seed {seed}: {len(untraced)} untraced + {len(traced)} traced passes of "
          f"{len(norm)} items, {items} items checked, {len(failures)} failed")
    print(f"pass wall time: median {statistics.median(p['wall_s'] for p in untraced):.4f} s untraced; "
          f"reference kernels: median {statistics.median(r for p in untraced for r in p['ref_s']):.5f} s")
    for failure in failures[:10]:
        print(f"  failed: {failure}")
    print(f"digest {' '.join(sorted(digests))}: "
          + ("unpinned" if pinned is None else "matches pin" if digest_ok else f"PIN IS {pinned}"))
    for p in probes:
        print(f"probe {p['gens']}: {p['outcome']} after {p['s']:.2f} s")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value} {unit}")
    return {
        "correct": not failures and digest_ok and not wrong_probes,
        "attempted": items,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }


# ---------------------------------------------------------------------------
# steadiness self-check and digest pins
# ---------------------------------------------------------------------------

def _spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def steadiness(workloads: list[str], runs: int, seconds: int) -> dict:
    spec = _spec()
    report = {"machine": machine(), "runs_per_set": runs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        sets = [[], []]
        for index in range(2 * runs):
            seed = index
            began = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                raise BenchError(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            sets[index // runs].append({**metrics, "run_s": perf_counter() - began})
            print(f"{workload:12} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in sets[index // runs][-1].items()),
                  flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            worse = (statistics.median(b) / statistics.median(a) - 1) * (1 if metric["better"] == "lower" else -1)
            row = {"bound": bound, "spread_a": _spread(a), "spread_b": _spread(b),
                   "spread_all": _spread(a + b), "median_a": statistics.median(a),
                   "median_b": statistics.median(b), "b_worse_by": worse}
            row["ok"] = worse <= bound and (name == "setup_s" or max(row["spread_a"], row["spread_b"]) <= bound)
            rows[name] = row
            print(f"{workload:12} {name:12} spread {row['spread_a']:.4f} / {row['spread_b']:.4f} "
                  f"(all {row['spread_all']:.4f}) shift {worse:+.4f} bound {bound} "
                  f"{'ok' if row['ok'] else 'OVER'}", flush=True)
        report["workloads"][workload] = {"metrics": rows, "runs": sets}
    return report


def pin(seeds: int) -> None:
    pins = {}
    for workload in (w["name"] for w in _spec()["workloads"]):
        pins[workload] = {str(seed): child("pass", workload, str(seed), "0")["digest"] for seed in range(seeds)}
        print(f"pinned {workload} seeds 0..{seeds - 1}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--pin", type=int, metavar="SEEDS")
    args = parser.parse_args(argv)
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]
        if args.pin:
            pin(args.pin)
            return 0
        if args.steadiness:
            chosen = names if args.workload == "all" else [args.workload]
            if not set(chosen) <= set(names):
                parser.error(f"--workload must be one of {names} or all")
            print(json.dumps(steadiness(chosen, args.steadiness, seconds)))
            return 0
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        result = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
