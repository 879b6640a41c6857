"""End-to-end command-line runs in a subprocess."""

import re

import pytest

from clicksim.graph import (
    demo_graph,
    extract_components,
    generate_synthetic,
    load_graph,
    save_graph,
)
from clicksim.rewrite import read_rewrites
from conftest import planted_skew_graph, run_cli


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.tsv"
    save_graph(demo_graph(), path)
    return path


@pytest.fixture
def gadget_file(tmp_path):
    path = tmp_path / "gadgets.tsv"
    save_graph(planted_skew_graph(0), path)
    return path


def _phase_times(stderr):
    """Names of the ``name=1.23s`` phase times on stderr, in order."""
    return re.findall(r"\b([a-z]+)=\d+\.\d\ds\b", stderr)


def test_ingest_check_summary(demo_file):
    proc = run_cli("ingest-check", demo_file)
    lines = proc.stdout.splitlines()
    assert "queries\t5" in lines
    assert "ads\t4" in lines
    assert "edges\t8" in lines
    assert "components\t2" in lines
    assert "largest_component_edges\t6" in lines


def test_ingest_check_counts_equal_the_built_components(tmp_path, demo_file):
    # a one-edge component first, so the largest is not the first found
    path = tmp_path / "graph.tsv"
    path.write_text("solo\tx\t10\t1\t0.100000\n" + demo_file.read_text())
    lines = run_cli("ingest-check", path).stdout.splitlines()
    components = extract_components(load_graph(path))
    assert lines[-2:] == [
        f"components\t{len(components)}",
        f"largest_component_edges\t{components[0].num_edges}",
    ] == ["components\t3", "largest_component_edges\t6"]


def test_ingest_check_file_without_edges(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# no edges yet\n")
    lines = run_cli("ingest-check", path).stdout.splitlines()
    assert lines[-2:] == ["components\t0", "largest_component_edges\t0"]


def test_ingest_check_missing_file(tmp_path):
    proc = run_cli("ingest-check", tmp_path / "nope.tsv", expect=1)
    assert proc.stderr.startswith("error:")


def test_ingest_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\tthree\tfields\n")
    proc = run_cli("ingest-check", bad, expect=1)
    assert proc.stderr.startswith("error: bad graph file")
    assert "line 1" in proc.stderr


def test_generate_is_deterministic(tmp_path):
    out1 = tmp_path / "g1.tsv"
    out2 = tmp_path / "g2.tsv"
    args = ["generate", "--queries", 40, "--ads", 30, "--edges", 90,
            "--seed", 9]
    proc = run_cli(*args, "-o", out1)
    assert "generated 90 edges" in proc.stderr
    assert _phase_times(proc.stderr) == ["generate", "write", "wall"]
    run_cli(*args, "-o", out2)
    assert out1.read_bytes() == out2.read_bytes()
    # a different seed changes the sample
    run_cli(*args[:-2], "--seed", 10, "-o", out2)
    assert out1.read_bytes() != out2.read_bytes()


def test_generate_stdout_keeps_data_channel_clean(tmp_path):
    proc = run_cli("generate", "--queries", 10, "--ads", 5, "--edges", 12,
                   "--seed", 3, "-o", "-")
    data_lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 12
    assert all(len(l.split("\t")) == 5 for l in data_lines)
    assert "generated" in proc.stderr and "generated" not in proc.stdout


def test_compute_dump_and_diagnostics(demo_file, tmp_path):
    out = tmp_path / "scores.tsv"
    proc = run_cli("compute", "--graph", demo_file, "-o", out)
    for key in (
        "method=simple", "iterations=", "converged=", "pairs=",
        "load=", "score=", "write=", "wall=", "peak_rss_mb=",
    ):
        assert key in proc.stderr
    assert proc.stdout == ""
    lines = out.read_text().splitlines()
    assert any(l.startswith("camera\tdigital camera\t0.61") for l in lines)
    # reruns are byte-identical; the data channel carries no timings
    out2 = tmp_path / "scores2.tsv"
    run_cli("compute", "--graph", demo_file, "-o", out2)
    assert out.read_bytes() == out2.read_bytes()


def test_compute_threads_do_not_change_output(demo_file, tmp_path):
    a = tmp_path / "t1.tsv"
    b = tmp_path / "t4.tsv"
    run_cli("compute", "--graph", demo_file, "--threads", 1, "-o", a)
    run_cli("compute", "--graph", demo_file, "--threads", 4, "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_compute_pearson_headers(demo_file, tmp_path):
    out = tmp_path / "pearson.tsv"
    run_cli("compute", "--graph", demo_file, "--method", "pearson", "-o", out)
    assert out.read_text().splitlines()[0] == "# method=pearson"


def test_compute_rejects_bad_decay(demo_file):
    proc = run_cli("compute", "--graph", demo_file, "--c1", "1.5", expect=2)
    assert "decay" in proc.stderr


@pytest.mark.parametrize("flag", ["--epsilon", "--threshold"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_compute_rejects_non_finite_or_negative_engine_numbers(demo_file, tmp_path, flag, value):
    out = tmp_path / "scores.tsv"
    proc = run_cli("compute", "--graph", demo_file, f"{flag}={value}", "-o", out, expect=2)
    assert "finite and non-negative" in proc.stderr
    assert not out.exists()


def test_compute_missing_graph(tmp_path):
    proc = run_cli("compute", "--graph", tmp_path / "nope.tsv", expect=1)
    assert proc.stderr.startswith("error:")


def test_rewrite_lists_and_depth_summary(demo_file, tmp_path):
    out = tmp_path / "rewrites.tsv"
    proc = run_cli("rewrite", "--graph", demo_file, "-o", out)
    # four of the five demo queries get rewrites; flower sits alone
    assert "coverage=0.800" in proc.stderr
    assert "depth_histogram=0:0.200 3:0.800" in proc.stderr
    lists = {lst.query: lst for lst in read_rewrites(out)}
    assert [r for r, _ in lists["pc"].rewrites] == ["camera", "digital camera", "tv"]
    assert "flower" not in lists


def test_rewrite_from_saved_scores_matches_direct(tmp_path):
    cases = [
        (demo_graph(), "simple"),
        # scores tied at 6 decimals but a few ulps apart in memory
        (generate_synthetic(300, 300, 900, seed=0), "weighted"),
    ]
    for case, (graph, method) in enumerate(cases):
        graph_file = tmp_path / f"graph{case}.tsv"
        save_graph(graph, graph_file)
        dump = tmp_path / f"scores{case}.tsv"
        run_cli("compute", "--graph", graph_file, "--method", method, "-o", dump)
        direct = tmp_path / f"direct{case}.tsv"
        reused = tmp_path / f"reused{case}.tsv"
        run_cli("rewrite", "--graph", graph_file, "--method", method, "-o", direct)
        run_cli("rewrite", "--graph", graph_file, "--scores", dump, "-o", reused)
        assert direct.read_bytes() == reused.read_bytes(), method


def test_rewrite_reports_phase_times(demo_file, tmp_path):
    dump = tmp_path / "scores.tsv"
    run_cli("compute", "--graph", demo_file, "-o", dump)
    out = tmp_path / "rewrites.tsv"
    for source, phase in ((["--scores", dump], "read"), ([], "score")):
        proc = run_cli("rewrite", "--graph", demo_file, *source, "-o", out)
        assert "coverage=0.800 depth_histogram=0:0.200 3:0.800\n" in proc.stderr
        assert _phase_times(proc.stderr) == ["load", phase, "rank", "write", "wall"]
        assert re.search(r"\bpeak_rss_mb=\d+\n", proc.stderr)
        assert proc.stdout == ""


def test_rewrite_bid_filtering(demo_file, tmp_path):
    bids = tmp_path / "bids.txt"
    bids.write_text("tv\ncamera\n")
    out = tmp_path / "rewrites.tsv"
    run_cli("rewrite", "--graph", demo_file, "--bids", bids, "-o", out)
    lists = {lst.query: lst for lst in read_rewrites(out)}
    assert [r for r, _ in lists["pc"].rewrites] == ["camera", "tv"]


def test_evaluate_desirability_report(gadget_file):
    proc = run_cli(
        "evaluate", "desirability", "--graph", gadget_file,
        "--n", 4, "--seed", 1, "--method", "weighted",
        "--max-iterations", 10, "--epsilon", 0, "--threshold", 1e-12,
    )
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("/4 orderings agree")
    assert lines[0].startswith("desirability experiment: ")
    assert "method=weighted" in lines
    assert "n=4" in lines
    assert "seed=1" in lines
    assert any(l.startswith("accuracy=") for l in lines)


def test_evaluate_desirability_rejects_baselines(gadget_file):
    run_cli(
        "evaluate", "desirability", "--graph", gadget_file,
        "--method", "pearson", expect=2,
    )


def test_evaluate_judgments_report(tmp_path):
    rewrites = tmp_path / "rewrites.tsv"
    rewrites.write_text(
        "q\t1\tr1\t0.900000\n"
        "q\t2\tr2\t0.800000\n"
        "p\t1\tr4\t0.600000\n"
    )
    judgments = tmp_path / "grades.tsv"
    judgments.write_text("q\tr1\t1\nq\tr2\t3\np\tr4\t2\n")
    sample = tmp_path / "sample.txt"
    sample.write_text("q\np\nunseen\n")
    proc = run_cli(
        "evaluate", "judgments", "--rewrites", rewrites,
        "--judgments", judgments, "--positives", "1,2",
        "--sample", sample,
    )
    lines = proc.stdout.splitlines()
    assert "queries_evaluated=2" in lines
    assert "macro_precision=0.750000" in lines
    assert "precision_at_1=1.000000" in lines
    assert any(l.startswith("interpolated_precision=") for l in lines)
    assert "coverage=0.666667" in lines
    assert "depth_1=0.500000" in lines and "depth_2=0.500000" in lines


def test_evaluate_judgments_ungraded_pair_fails(tmp_path):
    rewrites = tmp_path / "rewrites.tsv"
    rewrites.write_text("q\t1\tmystery\t0.900000\n")
    judgments = tmp_path / "grades.tsv"
    judgments.write_text("q\tother\t2\n")
    proc = run_cli(
        "evaluate", "judgments", "--rewrites", rewrites,
        "--judgments", judgments, expect=1,
    )
    assert "lack grades" in proc.stderr


def test_oracle_values():
    assert run_cli("oracle", "k22", "--k", 7).stdout.strip() == "0.6655744000"
    assert run_cli("oracle", "k12", "--k", 7).stdout.strip() == "0.8000000000"
    assert (
        run_cli("oracle", "evidence-k22", "--k", 7).stdout.strip()
        == "0.4991808000"
    )
    assert run_cli("oracle", "k22", "--limit").stdout.strip() == "0.6666666667"


def test_usage_errors_exit_two():
    run_cli("no-such-command", expect=2)
    run_cli("compute", expect=2)  # --graph is required
    run_cli("oracle", "k22", "--k", 0, expect=2)
