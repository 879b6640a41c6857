"""Run one clicksim benchmark workload, or every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the program is imported from
``src/``.  A run sets up the seeded graph file, repeats whole rounds of
the workload's commands until ``--seconds`` have passed, then checks the
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = str(max(1, min(2, os.cpu_count() or 1)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS  # dense checks: at most nproc (2) threads

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("compute_s", "s"), ("rewrite_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("graph.load_s", "s"), ("graph.components_s", "s"), ("graph.components", "count"),
    ("graph.remove_edges_s", "s"), ("graph.edges", "count"),
    ("simrank.score_s", "s"), ("simrank.rounds", "count"), ("simrank.pairs", "count"),
    ("simrank.write_s", "s"), ("simrank.dump_bytes", "bytes"), ("simrank.read_s", "s"),
    ("weighted.score_s", "s"),
    ("evidence.score_s", "s"), ("evidence.apply_s", "s"),
    ("evidence.pairs_in", "count"), ("evidence.pairs_kept", "count"),
    ("baselines.pearson_s", "s"), ("baselines.common_s", "s"), ("baselines.pairs", "count"),
    ("rewrite.rank_s", "s"), ("rewrite.lists", "count"), ("rewrite.lines", "count"),
    ("rewrite.write_s", "s"),
    ("evaluation.select_s", "s"), ("evaluation.triples", "count"),
    ("evaluation.desirability_s", "s"), ("evaluation.engine_runs", "count"),
    ("trace.overhead_s", "s"),
)

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args):
    """Each workload in its own fresh process, one after the other."""
    import subprocess

    from pipeline import WORKLOADS

    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(f"== {name}\n{proc.stdout}", end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv=None):
    args = _parse(argv)
    # a terminated run still removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "clicksim", "__init__.py")):
        print(f"error: no clicksim sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.workload == "all":
        return _run_all(args)
    from pipeline import WORKLOADS
    import bench

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = bench.run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), os.path.join(ROOT, ".perfbench-out"))
    wanted = PER_LAYER if args.trace else END_TO_END
    # a layer the workload never calls reads 0
    values = {name: result.metrics.get(name, 0.0) for name, _ in wanted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}
    print(f"workload {args.workload} seed {args.seed} rounds {result.rounds} "
          f"checks passed {len(result.report.passed)}")
    for name, unit in wanted:
        print(f"  {name:28s} {values[name]:14.6g} {unit}")
    print(f"  {'attempted':28s} {result.attempted:14d}")
    print(f"  {'failed':28s} {result.failed:14d}  {result.failed_note}")
    for line in result.report.failed:
        print(f"CHECK FAILED {line}")
    print(json.dumps({
        "correct": result.report.ok, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
