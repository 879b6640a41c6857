"""Per-step product and cleanup times of the SimRank engine, as JSON rows.

    python scripts/engine_steps.py --size 2e4 --method simple --threads 1 [--src DIR]

Scores the seed-42 ``size x size x 3*size`` graph of ``generate_synthetic``,
built in memory as criterion 8 builds it, with k = 7 and epsilon = 0, as
the benchmark's engine runs, on the sources under ``--src`` (default:
this checkout's ``src``).  The engine's ``_blocked_product`` and
``_cleanup`` are wrapped to time each step; nothing else changes.  Each
step prints one JSON object a line: its number, its side, the product's
seconds and entries, and the cleanup's seconds and kept entries (both
triangles).  A last row gives the engine seconds (the whole scoring call,
evidence included) and the process's peak RSS.  Run one method per
process, so the peak is that method's.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 7
SEED = 42
SCORERS = {
    "simple": ("clicksim.simrank", "simrank"),
    "weighted": ("clicksim.weighted", "weighted_simrank"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", type=float, required=True,
                        help="queries and ads each; edges are 3 times as many")
    parser.add_argument("--method", choices=sorted(SCORERS), default="simple")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the clicksim package to run")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from clicksim.graph import generate_synthetic

    # the package exports the function ``simrank`` under the module's name
    engine = importlib.import_module("clicksim.simrank")
    module, name = SCORERS[args.method]
    score = getattr(importlib.import_module(module), name)
    n = int(args.size)
    base = {"size": n, "edges": 3 * n, "method": args.method,
            "threads": args.threads, "seed": SEED}
    graph = generate_synthetic(n, n, 3 * n, seed=SEED)
    params = engine.SimRankParams(max_iterations=ITERATIONS, convergence_epsilon=0.0)

    product, cleanup = engine._blocked_product, engine._cleanup
    products = []

    def timed_product(*args):
        start = time.perf_counter()
        out = product(*args)
        products.append({"product_s": time.perf_counter() - start, "product_nnz": out.nnz})
        return out

    def timed_cleanup(mat, threshold):
        step = len(products)
        # handed over without a reference left here, so the cleanup frees
        # the product when it would untimed
        held = [mat]
        del mat
        start = time.perf_counter()
        out = cleanup(held.pop(), threshold)
        seconds = time.perf_counter() - start
        # step r of k refreshes the query side when k - r is even
        side = "query" if (ITERATIONS - step) % 2 == 0 else "ad"
        print(json.dumps({**base, "step": step, "side": side, **products[-1],
                          "cleanup_s": seconds, "kept_nnz": out.nnz}), flush=True)
        return out

    engine._blocked_product, engine._cleanup = timed_product, timed_cleanup
    try:
        start = time.perf_counter()
        score(graph, params, threads=args.threads)
        seconds = time.perf_counter() - start
    finally:
        engine._blocked_product, engine._cleanup = product, cleanup
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({**base, "engine_s": seconds, "peak_rss_mb": round(peak, 1)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
