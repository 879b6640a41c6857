"""The benchmark's workloads and the clicksim pipeline each round runs.

A round calls the public functions behind the ``clicksim`` commands in
command order: ``ingest-check``, then ``compute`` to a dump per method,
then ``rewrite --scores`` from each dump, then ``evaluate desirability``
where the workload has it.  Every stage loads the graph from the file
again, as each command does.
"""

import os
import time
from dataclasses import dataclass

from clicksim.baselines import common_ad_scores, pearson_scores
from clicksim.evaluation import desirability_experiment, select_triples
from clicksim.evidence import EvidenceKind, evidence_simrank
from clicksim.graph import extract_components, generate_synthetic, load_graph, save_graph
from clicksim.rewrite import top_rewrites, write_rewrites
from clicksim.simrank import Method, SimilarityScores, SimRankParams, simrank
from clicksim.weighted import weighted_simrank

from tracing import NullTracer

ROUNDS_K = 7  # engine rounds; convergence_epsilon=0 makes every run do all of them
DECAY = 0.8
THRESHOLD = 1e-4
EXPONENT = 2.2
THREADS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    name: str
    queries: int
    ads: int
    edges: int
    methods: tuple[str, ...]
    evaluate: tuple[str, ...] = ()
    triples: int = 0


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-simple-2e3", 2000, 2000, 6000, ("simple",)),
        Workload("batch-weighted-8e3", 8000, 8000, 24000, ("weighted",)),
        Workload(
            "compare-6e2", 600, 600, 1800,
            ("simple", "evidence", "weighted", "pearson", "common"),
            evaluate=("simple", "weighted"), triples=4,
        ),
    )
}

# Graphs that do not depend on --seed (see README).  Triple selection
# time is heavy-tailed over seeds, so the desirability experiment runs
# on one fixed graph and seed, whose selection includes hopeless q1
# draws.  The dump-boundary probes rank in-memory scores and the
# reloaded 6-decimal dump of a fixed graph; the two disagree on the same
# queries in every run.
EVAL_GRAPH = ((600, 600, 1800), 12)
PROBES = {"simple": ((300, 300, 900), 11), "weighted": ((300, 300, 900), 0)}


def params(method):
    tag = method if method in ("simple", "evidence", "weighted") else "simple"
    return SimRankParams(
        c1=DECAY, c2=DECAY, max_iterations=ROUNDS_K, convergence_epsilon=0.0,
        min_score_threshold=THRESHOLD, method=Method(tag),
    )


def score(tracer, graph, method):
    """The scoring call ``clicksim compute --method M`` makes."""
    kind = EvidenceKind.GEOMETRIC
    if method == "simple":
        return tracer.call("simrank.score", simrank, graph, params(method), threads=THREADS)
    if method == "evidence":
        return tracer.call("evidence.simrank", evidence_simrank, graph,
                           params(method), kind, threads=THREADS)
    if method == "weighted":
        return tracer.call("weighted.score", weighted_simrank, graph,
                           params(method), kind, threads=THREADS)
    if method == "pearson":
        return tracer.call("baselines.pearson", pearson_scores, graph)
    return tracer.call("baselines.common", common_ad_scores, graph)


def rank_all(scores, graph):
    return [top_rewrites(scores, query) for query in graph.queries()]


def make_graph(shape, seed, path):
    """Set-up: the seeded graph, written to the file the program reads."""
    graph = generate_synthetic(*shape, powerlaw_exponent=EXPONENT, seed=seed)
    save_graph(graph, path)


class Paths:
    def __init__(self, workdir):
        self.workdir = workdir
        self.graph = os.path.join(workdir, "graph.tsv")
        self.eval_graph = os.path.join(workdir, "eval-graph.tsv")
        self.probe_dump = os.path.join(workdir, "probe-scores.tsv")

    def probe_graph(self, method):
        return os.path.join(self.workdir, f"probe-graph-{method}.tsv")

    def dump(self, method):
        return os.path.join(self.workdir, f"scores-{method}.tsv")

    def rewrites(self, method):
        return os.path.join(self.workdir, f"rewrites-{method}.tsv")


def ingest_check(tracer, paths):
    graph = tracer.call("graph.load", load_graph, paths.graph)
    components = tracer.call("graph.components", extract_components, graph)
    return {
        "queries": graph.num_queries, "ads": graph.num_ads, "edges": graph.num_edges,
        "components": len(components),
        "largest_component_edges": components[0].num_edges,
    }


def compute(tracer, paths, method):
    graph = tracer.call("graph.load", load_graph, paths.graph)
    scores = score(tracer, graph, method)
    tracer.call("simrank.write", scores.write, paths.dump(method))
    return scores


def rewrite(tracer, paths, method):
    graph = tracer.call("graph.load", load_graph, paths.graph)
    scores = tracer.call("simrank.read", SimilarityScores.read, paths.dump(method), graph)
    lists = tracer.call("rewrite.rank", rank_all, scores, graph)
    tracer.call("rewrite.write", write_rewrites, lists, paths.rewrites(method))


def evaluate(tracer, paths, method, triples):
    graph = tracer.call("graph.load", load_graph, paths.eval_graph)
    chosen = tracer.call("evaluation.select", select_triples, graph, triples, EVAL_GRAPH[1])
    accuracy = tracer.call("evaluation.desirability", desirability_experiment,
                           graph, chosen, Method(method), params(method), threads=THREADS)
    labelled = [
        (graph.label(t.q1), graph.label(t.q2), graph.label(t.q3),
         [(graph.label(q), graph.label(a)) for q, a in t.removed_edges])
        for t in chosen
    ]
    return labelled, accuracy


def run_round(tracer, paths, workload, inspect=None):
    """One pass over the workload's commands.

    Returns the seconds of each stage kind and what the stages returned.
    ``inspect(kind, method, value)`` sees each stage's result between
    stages, outside the timed spans.
    """
    times = {"ingest": 0.0, "compute": 0.0, "rewrite": 0.0, "evaluate": 0.0}
    outputs = {}

    def timed(kind, method, fn, *args):
        started = time.perf_counter()
        value = fn(tracer, paths, *args)
        times[kind] += time.perf_counter() - started
        if inspect is not None:
            inspect(kind, method, value)
        return value

    outputs["ingest"] = timed("ingest", None, ingest_check)
    for method in workload.methods:
        scores = timed("compute", method, compute, method)
        outputs[f"compute-{method}"] = (scores.iterations_run, scores.converged, scores.pair_count)
        del scores
    for method in workload.methods:
        timed("rewrite", method, rewrite, method)
    for method in workload.evaluate:
        outputs[f"evaluate-{method}"] = timed(
            "evaluate", method, evaluate, method, workload.triples)
    return times, outputs


def probe_round(paths):
    """Rank every query of each fixed probe graph from in-memory scores and
    from the reloaded 6-decimal dump; one operation per query.

    Returns (queries compared, labels whose lists differ per method).
    """
    attempted, failed = 0, {}
    for method in PROBES:
        graph = load_graph(paths.probe_graph(method))
        scores = score(NullTracer(), graph, method)
        scores.write(paths.probe_dump)
        reloaded = SimilarityScores.read(paths.probe_dump, graph)
        bad = []
        for query in graph.queries():
            direct = [(label, f"{s:.6f}") for label, s in top_rewrites(scores, query).rewrites]
            dumped = [(label, f"{s:.6f}") for label, s in top_rewrites(reloaded, query).rewrites]
            if direct != dumped:
                bad.append(graph.query_labels[query.index])
        attempted += graph.num_queries
        failed[method] = bad
    return attempted, failed
