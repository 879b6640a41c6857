"""Byte identity of the command-line outputs on fixed seeded inputs.

Every output is built through ``cli.main`` and compared by sha256 with
``golden.json``: the generated graph files, the score dumps of all five
methods, the rewrite files read back from those dumps, engine dumps at
the default parameters (which take the convergence test's path), the
desirability reports and the ``ingest-check`` summaries.

Score bits depend on the numpy and scipy builds (scipy sums each product
entry in stored order, and that order has changed between releases), so
the JSON records the versions it was made with and a mismatch names
both pairs.  After a change that alters an output on purpose, rewrite
the JSON with ``python tests/update_golden.py`` and say which digests
changed and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from clicksim import cli

GOLDEN = Path(__file__).with_name("golden.json")

# name: (queries, ads, edges, seed), as the benchmark's workloads build them
GRAPHS = {
    "compare-s42": (600, 600, 1800, 42),
    "compare-s7": (600, 600, 1800, 7),
    "batch-simple-s42": (2000, 2000, 6000, 42),
    "batch-weighted-s42": (8000, 8000, 24000, 42),
    "eval-s12": (600, 600, 1800, 12),
}
METHODS = ("simple", "evidence", "weighted", "pearson", "common")
# the benchmark's engine settings: 7 rounds, every one of them run
BENCH_ENGINE = ("--max-iterations", "7", "--epsilon", "0", "--threshold", "1e-4")
# graph, methods dumped with BENCH_ENGINE and read back into rewrite lists
DUMPED = (
    ("compare-s42", METHODS),
    ("compare-s7", METHODS),
    ("batch-simple-s42", ("simple",)),
    ("batch-weighted-s42", ("weighted",)),
)
# other rewrite caps on one graph: (name suffix, extra rewrite flags)
CAPPED = (("cap7-3-bids", ("--candidate-cap", "7", "--final-cap", "3")),
          ("cap2-5", ("--candidate-cap", "2", "--final-cap", "5")))


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _run(*argv) -> str:
    """``clicksim ARGV`` in this process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"clicksim {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def build_outputs(workdir: Path) -> dict[str, str]:
    """Build every checked output under ``workdir``; returns their sha256
    digests by output name."""
    files: dict[str, Path] = {}

    def graph_path(name):
        return workdir / f"graph-{name}.tsv"

    for name, (nq, na, ne, seed) in GRAPHS.items():
        path = graph_path(name)
        _run("generate", "--queries", nq, "--ads", na, "--edges", ne,
             "--seed", seed, "-o", path)
        files[f"graph/{name}"] = path
        report = workdir / f"ingest-{name}.txt"
        report.write_text(_run("ingest-check", path), encoding="utf-8")
        files[f"ingest-check/{name}"] = report

    for name, methods in DUMPED:
        for method in methods:
            dump = workdir / f"scores-{name}-{method}.tsv"
            _run("compute", "--graph", graph_path(name), "--method", method,
                 *BENCH_ENGINE, "--threads", 2, "-o", dump)
            files[f"dump/{name}/{method}"] = dump
            rewrites = workdir / f"rewrites-{name}-{method}.tsv"
            _run("rewrite", "--graph", graph_path(name), "--scores", dump,
                 "-o", rewrites)
            files[f"rewrites/{name}/{method}"] = rewrites

    bids = workdir / "bids.txt"
    bids.write_text("".join(f"q{i}\n" for i in range(0, 600, 3)), encoding="utf-8")
    for method in ("simple", "weighted"):
        dump = files[f"dump/compare-s42/{method}"]
        for suffix, flags in CAPPED:
            rewrites = workdir / f"rewrites-compare-s42-{method}-{suffix}.tsv"
            extra = ("--bids", bids) if suffix.endswith("bids") else ()
            _run("rewrite", "--graph", graph_path("compare-s42"), "--scores", dump,
                 *flags, *extra, "-o", rewrites)
            files[f"rewrites/compare-s42/{method}/{suffix}"] = rewrites

    for method in ("simple", "evidence", "weighted"):
        dump = workdir / f"scores-defaults-{method}.tsv"
        _run("compute", "--graph", graph_path("compare-s42"), "--method", method,
             "-o", dump)
        files[f"dump-defaults/compare-s42/{method}"] = dump

    for method in ("simple", "weighted"):
        report = workdir / f"desirability-{method}.txt"
        report.write_text(
            _run("evaluate", "desirability", "--graph", graph_path("eval-s12"),
                 "--n", 4, "--seed", 12, "--method", method, *BENCH_ENGINE,
                 "--threads", 2),
            encoding="utf-8",
        )
        files[f"desirability/eval-s12/{method}"] = report

    return {
        name: hashlib.sha256(path.read_bytes()).hexdigest()
        for name, path in sorted(files.items())
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_output(built):
    assert sorted(built) == sorted(_golden()["digests"])


# a missing golden.json fails test_golden_covers_every_output
@pytest.mark.parametrize("name", sorted(_golden()["digests"]) if GOLDEN.exists() else [])
def test_output_is_byte_identical(built, name):
    golden = _golden()
    assert built.get(name) == golden["digests"][name], (
        f"{name} differs from its golden digest; golden.json was made with "
        f"{golden['versions']}, this run uses {versions()}"
    )
