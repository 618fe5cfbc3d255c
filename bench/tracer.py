"""Per-layer tracing of numsgps from outside the package.

``Tracer.install`` replaces each listed public function by a timing wrapper
in every namespace that binds it: the package root, each ``numsgps.*`` module
that imported it, and the class attributes ``NumericalSemigroup.from_generators``
and ``RelativeIdeal.minimal_generators``.  Per-element methods such as
``RelativeIdeal.contains`` are left alone; they run millions of times per pass.

Spans (name, start, end, parent, sizes) stay in memory and are folded into
per-layer numbers by ``Tracer.metrics`` after the pass.  A span's self time is
its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "hilbert", "ideals", "construction", "duplication")

# span name -> (module, qualified name) of every public function it covers
SPANS = {
    "core.from_generators": [("core", "NumericalSemigroup.from_generators")],
    "hilbert.order_table": [("hilbert", "order_table")],
    "hilbert.hilbert": [("hilbert", "hilbert_function"), ("hilbert", "hilbert_through_stabilization")],
    "hilbert.oracle": [("hilbert", "hilbert_by_set_construction")],
    "hilbert.apery_table": [("hilbert", "apery_table")],
    "ideals.ideal_sum": [("ideals", "ideal_sum")],
    "ideals.minimal_generators": [("ideals", "RelativeIdeal.minimal_generators")],
    "ideals.pseudo_frobenius": [("ideals", "pseudo_frobenius")],
    "ideals.canonical": [("ideals", "standard_canonical_ideal")],
    "ideals.symmetry": [("ideals", "is_symmetric"), ("ideals", "is_almost_symmetric"),
                        ("ideals", "nari_partition")],
    "construction.construct_asd": [("construction", "construct_asd")],
    "construction.verify": [("construction", "verify_construction")],
    "duplication.numerical_duplication": [("duplication", "numerical_duplication")],
    "duplication.witness": [("duplication", "gorenstein_witness")],
}


def _sizes(name: str, args: tuple, result) -> dict:
    """The counts a span records beside its time."""
    if name == "core.from_generators":
        return {"e": result.multiplicity, "nu": result.embedding_dimension, "c": result.conductor}
    if name == "hilbert.order_table":
        return {"cells": args[1]}
    if name == "hilbert.hilbert":
        return {"levels": len(result.values)}
    if name == "duplication.witness":
        return {"chain_steps": len(result.chain) - 1}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, sizes, failed)
        self._stack: list[int] = []
        self._counted_error = None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost span it leaves
                failed = exc is not tracer._counted_error
                tracer._counted_error = exc
                tracer.spans[index] = (name, start, perf_counter(), parent, {}, failed)
                raise
            finally:
                tracer._stack.pop()
            end = perf_counter()
            tracer.spans[index] = (name, start, end, parent, _sizes(name, args, result), False)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of the listed functions; call once per process."""
        modules = [m for key, m in sys.modules.items() if key == "numsgps" or key.startswith("numsgps.")]
        for name, targets in SPANS.items():
            for module_name, qualname in targets:
                owner = sys.modules[f"numsgps.{module_name}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, attr, self._wrap(name, raw))
                    continue
                original = getattr(owner, qualname)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer totals of one traced pass whose items took ``wall_s``."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        sizes: Counter = Counter()
        errors: Counter = Counter()
        order_calls_under: Counter = Counter()  # hilbert span index -> direct order_table calls
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for name, start, end, parent, span_sizes, failed in self.spans:
            dur = end - start
            if parent >= 0:
                child_s[parent] += dur
                if name == "hilbert.order_table" and self.spans[parent][0] == "hilbert.hilbert":
                    order_calls_under[parent] += 1
            else:
                top_s += dur
            calls[name] += 1
            errors[name.split(".")[0]] += failed
            for key, value in span_sizes.items():
                sizes[f"{name}.{key}"] += value
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_s[name] += end - start - child_s[index]

        out = {f"{name}.self_s": self_s[name] for name in SPANS}
        for name in ("core.from_generators", "hilbert.order_table", "ideals.ideal_sum",
                     "duplication.numerical_duplication"):
            out[f"{name}.calls"] = calls[name]
        out["core.table_cells"] = sizes["core.from_generators.c"] + calls["core.from_generators"]
        out["hilbert.order_table.cells"] = sizes["hilbert.order_table.cells"]
        out["hilbert.window_retries"] = sum(n - 1 for n in order_calls_under.values())
        out["duplication.chain_steps"] = sizes["duplication.witness.chain_steps"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        out["sizes.e"] = sizes["core.from_generators.e"]
        out["sizes.nu"] = sizes["core.from_generators.nu"]
        out["sizes.c"] = sizes["core.from_generators.c"]
        out["sizes.levels"] = sizes["hilbert.hilbert.levels"]
        out["other.self_s"] = wall_s - top_s
        out["trace.wall_s"] = wall_s
        return out
