"""Spans around the calls the benchmark makes into clicksim's layers.

A span records a name, its start and end on the ``perf_counter`` clock,
the span that caused it and a few counts taken from the call's
arguments or returned value.  Spans are kept in memory and written out
once, when the run ends.

The benchmark opens spans around its own calls (``Tracer.call``).  Calls
one layer makes into another (the evidence scaling inside
``weighted_simrank``, the engine runs inside ``desirability_experiment``)
are reached by swapping the module attribute the caller looks up for a
wrapper while a traced round runs; ``install`` and ``uninstall`` do
that, so untraced rounds run the program untouched.
"""

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict


def _engine_counts(args, result):
    return {"simrank.pairs": result.pair_count, "simrank.rounds": result.iterations_run}


def _evidence_counts(args, result):
    return {"evidence.pairs_in": args[0].nnz // 2, "evidence.pairs_kept": result.nnz // 2}


# counts recorded on a span, by span name: (call arguments, result) -> counts
COUNTERS = {
    "graph.load": lambda args, r: {"graph.edges": r.num_edges},
    "graph.components": lambda args, r: {"graph.components": len(r)},
    "simrank.score": _engine_counts,
    "weighted.score": _engine_counts,
    "simrank.write": lambda args, r: {"simrank.dump_bytes": os.path.getsize(args[0])},
    "evidence.apply": _evidence_counts,
    "baselines.pearson": lambda args, r: {"baselines.pairs": r.pair_count},
    "baselines.common": lambda args, r: {"baselines.pairs": r.pair_count},
    "rewrite.rank": lambda args, r: {
        "rewrite.lists": len(r),
        "rewrite.lines": sum(lst.depth for lst in r),
    },
    "evaluation.select": lambda args, r: {"evaluation.triples": len(r)},
}

# (module, attribute, span name): calls made inside the program
PATCHES = (
    ("clicksim.evaluation", "remove_edges", "graph.remove_edges"),
    ("clicksim.evaluation", "simrank", "simrank.score"),
    ("clicksim.evaluation", "weighted_simrank", "weighted.score"),
    ("clicksim.evidence", "simrank", "simrank.score"),
    ("clicksim.evidence", "apply_evidence", "evidence.apply"),
    ("clicksim.evidence", "_evidence_matrix", "evidence.score"),
    ("clicksim.weighted", "apply_evidence", "evidence.apply"),
)

ENGINE_SPANS = ("simrank.score", "weighted.score")


class NullTracer:
    """Untraced rounds: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans from any thread; keeps them until ``write``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack()
        # a worker thread's first span was caused by the span the main
        # thread has open while it waits on the pool
        cause = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = {"id": next(self._ids), "name": name,
                    "parent": cause["id"] if cause else None, "counts": {}}
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            span["counts"] = counter(args, result)
        return result

    def install(self):
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                out.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans):
    """Per-layer self seconds and counts summed over ``spans``.

    A span's self time is its duration minus the part of it that its
    child spans cover; children that overlap (worker threads) are
    counted once.  ``evaluation.engine_runs`` counts the engine spans
    caused, directly or not, by a desirability experiment.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    totals = defaultdict(float)
    for s in spans:
        own = s["end"] - s["start"] - _covered(children[s["id"]], s["start"], s["end"])
        totals[s["name"] + "_s"] += max(own, 0.0)
        for key, value in s["counts"].items():
            totals[key] += value
        if s["name"] in ENGINE_SPANS:
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != "evaluation.desirability":
                parent = by_id.get(parent["parent"])
            if parent is not None:
                totals["evaluation.engine_runs"] += 1
    return totals
