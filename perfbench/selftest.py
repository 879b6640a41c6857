"""Show that the benchmark's output checks bite.

    python3 perfbench/selftest.py [--seed N]

Runs one round of the compare workload, checks its outputs (they must
pass), then corrupts one output at a time and checks again: a perturbed
score, two swapped rewrite entries and a dropped removed edge must each
turn the matching check red.  It also checks that ``BENCHMARK.json``
names the workloads and metrics the benchmark reports.  Exits 0 when
all of that holds.
"""

import argparse
import json
import os
import shutil
import sys

import run  # sets the thread caps before numpy loads
import checks

WORKLOAD = "compare-6e2"


def _bites(name, check, *args):
    report = checks.Report()
    check(report, *args)
    hit = any(line.startswith(name) for line in report.failed)
    print(f"{'red  ' if hit else 'GREEN'} {name}: {report.failed[:1] or 'no failure'}")
    return hit


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import bench
    import pipeline
    from tracing import NullTracer

    ok = True
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    reported = {
        "workloads": list(pipeline.WORKLOADS),
        "end_to_end": list(run.END_TO_END),
        "per_layer": list(run.PER_LAYER),
    }
    for key in listed:
        if listed[key] != reported[key]:
            print(f"BENCHMARK.json {key} differ from what the benchmark reports")
            ok = False

    workload = pipeline.WORKLOADS[WORKLOAD]
    workdir = os.path.join(run.ROOT, ".perfbench-out", f"selftest-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    paths = pipeline.Paths(workdir)
    try:
        pipeline.make_graph((workload.queries, workload.ads, workload.edges),
                            args.seed, paths.graph)
        pipeline.make_graph(*pipeline.EVAL_GRAPH, paths.eval_graph)
        report = checks.Report()
        _, outputs = pipeline.run_round(
            NullTracer(), paths, workload,
            lambda kind, method, value: kind == "compute"
            and checks.check_table(report, method, value))
        bench._check_outputs(report, workload, paths, outputs, args.seed)
        print(f"untouched outputs: {len(report.passed)} checks passed, "
              f"{len(report.failed)} failed")
        for line in report.failed:
            print(f"  {line}")
        ok = ok and report.ok

        edges = checks.Edges(paths.graph)
        dump = checks.read_dump(paths.dump("simple"))
        pairs = dict(dump[1])
        first = next(iter(pairs))
        pairs[first] = f"{float(pairs[first]) + 0.001:.6f}"
        ok &= _bites("simple: dense reference", checks.check_engine,
                     "simple", edges, (dump[0], pairs, dump[2], dump[3]))

        lists = checks.read_rewrite_file(paths.rewrites("simple"))
        query = next(q for q, entries in lists.items()
                     if len(entries) > 1 and entries[0][2] != entries[1][2])
        (r1, w1, s1), (r2, w2, s2) = lists[query][:2]
        lists[query][:2] = [(r1, w2, s2), (r2, w1, s1)]
        ok &= _bites("simple: rewrite lists", checks.check_rewrites, "simple", dump, lists)

        triples, accuracy = outputs["evaluate-simple"]
        q1, q2, q3, removed = triples[0]
        dropped = [(q1, q2, q3, removed[:-1])] + triples[1:]
        ok &= _bites("simple: desirability triples", checks.check_triples,
                     "simple", checks.Edges(paths.eval_graph), dropped, accuracy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
