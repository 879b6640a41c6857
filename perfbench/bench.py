"""One benchmark run: set-up, timed rounds, traced rounds, checks."""

import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import checks
import pipeline
from tracing import NullTracer, Tracer, layer_totals

SETUP_REPEATS = 3


@dataclass
class Result:
    rounds: int
    attempted: int
    failed: int
    failed_note: str
    metrics: dict
    report: checks.Report


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fingerprint(paths, workload, outputs):
    """What a round produced: stage results and the bytes of every file."""
    files = [paths.dump(m) for m in workload.methods] + [paths.rewrites(m) for m in workload.methods]
    return outputs, [_digest(f) for f in files]


def run(workload, seed, seconds, trace, outdir):
    workdir = os.path.join(outdir, f"{workload.name}-s{seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, outdir, pipeline.Paths(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, outdir, paths):
    report = checks.Report()
    shape = (workload.queries, workload.ads, workload.edges)
    setup = []

    def set_up():
        started = time.perf_counter()
        pipeline.make_graph(shape, seed, paths.graph)
        setup.append(time.perf_counter() - started)

    for _ in range(SETUP_REPEATS):
        set_up()
    if workload.evaluate:
        pipeline.make_graph(*pipeline.EVAL_GRAPH, paths.eval_graph)
    for method, (probe_shape, probe_seed) in pipeline.PROBES.items():
        pipeline.make_graph(probe_shape, probe_seed, paths.probe_graph(method))

    def inspect(kind, method, value):
        if kind == "compute":
            checks.check_table(report, method, value)

    tracer = Tracer()
    plain, traced = [], []  # stage times per untraced round; (times, layer totals) per traced one
    first = first_probe = None
    attempted = failed = 0
    ops = 1 + 2 * len(workload.methods) + len(workload.evaluate)
    started = time.perf_counter()
    while (not plain or time.perf_counter() - started < seconds
           or (trace and not traced)):
        n = len(plain) + len(traced)
        if n:
            set_up()  # spread set-up samples over the run
        if trace and n % 2 == 1:
            mark = len(tracer.spans)
            tracer.install()
            try:
                times, outputs = tracer.call(
                    "round", pipeline.run_round, tracer, paths, workload)
            finally:
                tracer.uninstall()
            traced.append((times, layer_totals(tracer.spans[mark:])))
        else:
            times, outputs = pipeline.run_round(
                NullTracer(), paths, workload, inspect if n == 0 else None)
            plain.append(times)
        fingerprint = _fingerprint(paths, workload, outputs)
        first = first or fingerprint
        if fingerprint != first:
            report.expect(f"round {n + 1} repeats round 1", ["outputs differ"])
        probed, probe_failed = pipeline.probe_round(paths)
        first_probe = first_probe or probe_failed
        if probe_failed != first_probe:
            report.expect(f"round {n + 1} dump-boundary failures repeat", ["they differ"])
        attempted += ops + probed
        failed += sum(len(bad) for bad in probe_failed.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _check_outputs(report, workload, paths, first[0], seed)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(t.values()) for t in plain),
        "compute_s": statistics.median(t["compute"] for t in plain),
        "rewrite_s": statistics.median(t["rewrite"] for t in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        names = set().union(*(totals for _, totals in traced))
        for name in names:
            metrics[name] = statistics.median(totals.get(name, 0.0) for _, totals in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(sum(t.values()) for t, _ in traced) - metrics["wall_s"])
        tracer.write(os.path.join(outdir, f"trace-{workload.name}-s{seed}.jsonl"))
    counts = ", ".join(f"{m} {len(bad)}" for m, bad in first_probe.items())
    note = f"dump-boundary mismatches per round ({counts} of {probed} probe queries)"
    return Result(len(plain) + len(traced), attempted, failed, note, metrics, report)


def _check_outputs(report, workload, paths, outputs, seed):
    edges = checks.Edges(paths.graph)
    checks.check_ingest(report, edges, outputs["ingest"])
    for method in workload.methods:
        dump = checks.read_dump(paths.dump(method))
        checks.check_dump_format(report, method, edges, dump)
        if method in checks.ENGINE_METHODS:
            checks.check_engine(report, method, edges, dump)
        else:
            checks.check_baseline(report, method, edges, dump, seed)
        checks.check_rewrites(report, method, dump, checks.read_rewrite_file(paths.rewrites(method)))
    if workload.evaluate:
        eval_edges = checks.Edges(paths.eval_graph)
    for method in workload.evaluate:
        triples, accuracy = outputs[f"evaluate-{method}"]
        checks.check_triples(report, method, eval_edges, triples, accuracy)
