"""Phase times and peak memory of the ``clicksim`` commands, as JSON rows.

    python scripts/cli_phases.py --size 2e4 --threads 2 [--src DIR] [--workdir DIR]

Generates a seeded ``size x size x 3*size`` graph with ``clicksim
generate``, then runs ``compute`` and ``rewrite --scores`` for the
simple and the weighted method (k = 7, epsilon = 0, as the benchmark's
engine runs).  Each command runs in its own process on the sources under
``--src`` (default: this checkout's ``src``), so peak RSS is per
command.  The phase fields each command prints on stderr (``load=``,
``score=``, ``read=``, ``rank=``, ``write=``, ``wall=``,
``peak_rss_mb=`` and the like) are printed as one JSON object a line.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE = ("--max-iterations", "7", "--epsilon", "0")
STDERR_TAIL = 10  # stderr lines shown for a failing command
# ``name=value`` fields, seconds with their ``s`` dropped
FIELD = re.compile(r"\b([a-z_]+)=(-?\d+(?:\.\d+)?)s?(?=\s|$)")


def run(src, *argv):
    """Run ``clicksim ARGV`` on the sources in ``src``; returns the fields
    of its last stderr line.  A failing command raises an error naming
    it, with the tail of its stderr."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "clicksim", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode:
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL:])
        raise RuntimeError(
            f"clicksim {' '.join(argv)} exited with status {proc.returncode}:\n{tail}"
        )
    last = proc.stderr.strip().splitlines()[-1]
    return {name: float(value) for name, value in FIELD.findall(last)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", type=float, required=True,
                        help="queries and ads each; edges are 3 times as many")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the clicksim package to run")
    parser.add_argument("--workdir", help="where the graph and dumps go, made "
                        "if missing (default: a temporary directory, removed after)")
    parser.add_argument("--label", default="", help="tag copied into every row")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        workdir = args.workdir or scratch
        os.makedirs(workdir, exist_ok=True)
        n = int(args.size)
        base = {"label": args.label, "size": n, "edges": 3 * n,
                "threads": args.threads, "seed": args.seed}
        graph = os.path.join(workdir, f"graph-{n}.tsv")
        row = run(args.src, "generate", "--queries", str(n), "--ads", str(n),
                  "--edges", str(3 * n), "--seed", str(args.seed), "-o", graph)
        print(json.dumps({**base, "command": "generate", **row}), flush=True)
        for method in ("simple", "weighted"):
            dump = os.path.join(workdir, f"scores-{n}-{method}.tsv")
            row = run(args.src, "compute", "--graph", graph, "--method", method,
                      *ENGINE, "--threads", str(args.threads), "-o", dump)
            row["dump_bytes"] = os.path.getsize(dump)
            print(json.dumps({**base, "command": f"compute {method}", **row}), flush=True)
            rewrites = os.path.join(workdir, f"rewrites-{n}-{method}.tsv")
            row = run(args.src, "rewrite", "--graph", graph, "--scores", dump,
                      "-o", rewrites)
            print(json.dumps({**base, "command": f"rewrite --scores {method}", **row}),
                  flush=True)
            os.remove(dump)
    return 0


if __name__ == "__main__":
    sys.exit(main())
