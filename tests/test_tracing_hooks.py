"""Every call the benchmark's tracer swaps in still happens.

``perfbench/tracing.py`` reaches calls one layer makes into another by
replacing module attributes by name (``PATCHES``), and skips a name it
cannot find.  A renamed or bypassed attribute would make its per-layer
metric read 0 without any error, so this test wraps each one with a
counter and runs the calls that should reach them.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from clicksim.evaluation import desirability_experiment, select_triples
from clicksim.evidence import evidence_simrank
from clicksim.graph import generate_synthetic
from clicksim.simrank import SimRankParams
from clicksim.weighted import weighted_simrank

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PATCHES


def test_every_traced_attribute_is_called(monkeypatch):
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    patches = _patches()
    for name, attr, _ in patches:
        module = importlib.import_module(name)
        # getattr raises on a missing attribute, which Tracer.install skips
        monkeypatch.setattr(module, attr, counting((name, attr), getattr(module, attr)))

    graph = generate_synthetic(200, 200, 600, seed=3)
    params = SimRankParams(max_iterations=3, convergence_epsilon=0.0)
    evidence_simrank(graph, params)
    weighted_simrank(graph, params)
    triples = select_triples(graph, 2, 3)
    for method in ("simple", "weighted"):
        desirability_experiment(graph, triples, method, params)

    never = [f"{name}.{attr}" for name, attr, _ in patches if not calls[(name, attr)]]
    assert patches and not never, f"never called: {never}"
