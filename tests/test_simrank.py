"""Iterative engine against the closed forms and its behavioral contract."""

import importlib
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clicksim.baselines import pearson_scores
from clicksim.evidence import EvidenceKind, apply_evidence
from clicksim.graph import (
    ClickGraph,
    ad_node,
    complete_bipartite,
    generate_synthetic,
    query_node,
)
from clicksim.oracles import closed_form_k12, closed_form_k22
from clicksim.simrank import (
    Method,
    SimilarityScores,
    SimRankParams,
    _blocked_product,
    _cleanup,
    _transition_matrices,
    simrank,
)
from clicksim.weighted import weighted_simrank
from conftest import sim_by_label

# the package exports the function ``simrank`` under the module's name
simrank_module = importlib.import_module("clicksim.simrank")

DECAY_GRID = [0.5, 0.6, 0.8, 1.0]


def exact_params(k):
    return SimRankParams(
        max_iterations=k, convergence_epsilon=0.0, min_score_threshold=0.0
    )


def grid_params(c1, c2, k):
    return SimRankParams(
        c1=c1, c2=c2, max_iterations=k,
        convergence_epsilon=0.0, min_score_threshold=0.0,
    )


def test_two_ad_pair_matches_closed_form_to_1e12():
    g = complete_bipartite(num_ads=2, num_queries=2, weight=0.1)
    for c1, c2 in itertools.product(DECAY_GRID, repeat=2):
        for k in (1, 2, 3, 5, 10, 30):
            got = sim_by_label(simrank(g, grid_params(c1, c2, k)), "q0", "q1")
            assert got == pytest.approx(
                closed_form_k22(c1, c2, k), abs=1e-12
            ), (c1, c2, k)


def test_one_ad_pair_matches_closed_form_to_1e12():
    g = complete_bipartite(num_ads=1, num_queries=2, weight=0.1)
    for c1, c2 in itertools.product(DECAY_GRID, repeat=2):
        for k in (1, 2, 7, 30):
            got = sim_by_label(simrank(g, grid_params(c1, c2, k)), "q0", "q1")
            assert got == pytest.approx(closed_form_k12(c1, c2, k), abs=1e-12)


def test_reference_iterates_at_default_decay():
    g = complete_bipartite(num_ads=2, num_queries=2, weight=0.1)
    seq = [0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744]
    for k, expected in enumerate(seq, start=1):
        got = sim_by_label(simrank(g, exact_params(k)), "q0", "q1")
        assert got == pytest.approx(expected, abs=1e-7)


def test_demo_graph_converged_scores(demo):
    params = SimRankParams(
        max_iterations=100, convergence_epsilon=1e-10, min_score_threshold=1e-12
    )
    scores = simrank(demo, params)
    assert scores.converged
    assert sim_by_label(scores, "pc", "camera") == pytest.approx(0.619, abs=0.005)
    assert sim_by_label(scores, "pc", "digital camera") == pytest.approx(0.619, abs=0.005)
    assert sim_by_label(scores, "camera", "digital camera") == pytest.approx(0.619, abs=0.005)
    assert sim_by_label(scores, "camera", "tv") == pytest.approx(0.619, abs=0.005)
    assert sim_by_label(scores, "digital camera", "tv") == pytest.approx(0.619, abs=0.005)
    assert sim_by_label(scores, "pc", "tv") == pytest.approx(0.437, abs=0.005)
    for other in ("pc", "camera", "digital camera", "tv"):
        assert sim_by_label(scores, "flower", other) == 0.0


def test_similarity_accessor_contract(demo):
    scores = simrank(demo, exact_params(3))
    pc = demo.query_id("pc")
    assert scores.similarity(pc, pc) == 1.0
    tv = demo.query_id("tv")
    assert scores.similarity(pc, tv) == scores.similarity(tv, pc)
    with pytest.raises(ValueError, match="query nodes"):
        scores.similarity(pc, ad_node(0))
    with pytest.raises(ValueError, match="out of range"):
        scores.similarity(pc, query_node(99))


def test_threshold_drops_small_scores(demo):
    # pc-tv reaches 0.14 after round 2 while direct-overlap pairs stay at
    # 0.4+; a floor in between erases only the indirect pair
    high = SimRankParams(max_iterations=2, convergence_epsilon=0.0,
                         min_score_threshold=0.35)
    scores = simrank(demo, high)
    assert sim_by_label(scores, "pc", "tv") == 0.0
    assert sim_by_label(scores, "camera", "digital camera") >= 0.4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c1": 0.0}, {"c1": 1.0001}, {"c2": -0.5},
        {"max_iterations": 0},
        {"convergence_epsilon": -1e-9},
        {"min_score_threshold": -1.0},
        *(
            {name: value}
            for name in ("convergence_epsilon", "min_score_threshold")
            for value in (float("nan"), float("inf"), float("-inf"))
        ),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SimRankParams(**kwargs)


def test_method_coercion():
    assert SimRankParams(method="weighted").method is Method.WEIGHTED
    with pytest.raises(ValueError):
        SimRankParams(method="tarot")


def _random_graph(nq, na, cells, rates):
    records = [("q0", "a0", 100, int(rates[0] * 100), rates[0])]
    for i in range(nq):
        for j in range(na):
            if (i, j) != (0, 0) and cells[(i * na + j) % len(cells)]:
                r = rates[(i * na + j) % len(rates)]
                records.append((f"q{i}", f"a{j}", 100, int(r * 100), r))
    return ClickGraph.from_records(records)


small_graphs = st.builds(
    _random_graph,
    st.integers(2, 5),
    st.integers(1, 4),
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.lists(st.floats(0.01, 0.99), min_size=5, max_size=5),
)


@given(small_graphs, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_scores_stay_bounded_and_symmetric(graph, k):
    scores = simrank(graph, exact_params(k))
    dense = scores.matrix.toarray()
    assert np.allclose(dense, dense.T, atol=0)
    assert dense.min() >= 0.0
    assert dense.max() <= 1.0 + 1e-12


@given(small_graphs, st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_iterates_grow_from_zero_start(graph, k):
    now = simrank(graph, exact_params(k)).matrix.toarray()
    nxt = simrank(graph, exact_params(k + 1)).matrix.toarray()
    assert (nxt - now).min() >= -1e-12


@given(small_graphs, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_thread_count_never_changes_scores(graph, k):
    one = simrank(graph, exact_params(k), threads=1)
    many = simrank(graph, exact_params(k), threads=4)
    assert np.array_equal(one.matrix.toarray(), many.matrix.toarray())


def test_convergence_flag_and_iteration_count(demo):
    runaway = SimRankParams(max_iterations=3, convergence_epsilon=0.0)
    partial = simrank(demo, runaway)
    assert not partial.converged
    assert partial.iterations_run == 3
    settled = simrank(
        demo,
        SimRankParams(max_iterations=500, convergence_epsilon=1e-9,
                      min_score_threshold=1e-12),
    )
    assert settled.converged
    assert settled.iterations_run < 500


def test_converged_run_equals_fixed_run_of_same_length(demo):
    # the stop is taken on a query step, so a converged run returns the
    # same iterate a fixed-length run of that many rounds does
    settled = simrank(
        demo,
        SimRankParams(max_iterations=41, convergence_epsilon=1e-9,
                      min_score_threshold=1e-12),
    )
    assert settled.converged
    assert settled.iterations_run % 2 == 41 % 2
    fixed = simrank(
        demo,
        SimRankParams(max_iterations=settled.iterations_run,
                      convergence_epsilon=0.0, min_score_threshold=1e-12),
    )
    assert not fixed.converged
    _assert_same_csr(settled.matrix, fixed.matrix)


# -- bit identity with a two-sided iteration ---------------------------------


def _reference_cleanup(mat, threshold):
    """Average the triangles, drop the diagonal and prune, through COO."""
    summed = (mat + mat.T).tocoo()
    keep = (
        (summed.row != summed.col)
        & (summed.data >= 2.0 * threshold)
        & (summed.data > 0.0)
    )
    return sparse.csr_matrix(
        (
            np.minimum(summed.data[keep] * 0.5, 1.0),
            (summed.row[keep], summed.col[keep]),
        ),
        shape=mat.shape,
    )


def _row_normalized(adjacency):
    """Binary adjacency scaled so each nonempty row sums to one: plain
    SimRank's transitions, written without the engine's builder."""
    out = adjacency.copy()
    out.data = np.ones_like(out.data)
    degrees = np.diff(out.indptr)
    scale = np.repeat(
        np.divide(
            1.0,
            degrees,
            out=np.zeros(degrees.shape, dtype=np.float64),
            where=degrees > 0,
        ),
        degrees,
    )
    out.data = out.data * scale
    return out


def _margin_pruned(product, threshold):
    """``product`` without its entries below half the threshold.

    The engine once pruned each block of its products so; the reference
    keeps doing it, so the chain tests also pin that leaving the product
    unpruned changes no bit.
    """
    if threshold > 0.0 and product.nnz:
        product.data[product.data < threshold * 0.5] = 0.0
        product.eliminate_zeros()
    return product


def _two_sided_reference(trans_q, trans_a, params, threads=1):
    """Refresh both sides every round; the query iterate of each round."""
    nq, na = trans_q.shape
    tq_t, ta_t = trans_q.T.tocsr(), trans_a.T.tocsr()
    eye_q = sparse.identity(nq, format="csr")
    eye_a = sparse.identity(na, format="csr")
    s_q = sparse.csr_matrix((nq, nq))
    s_a = sparse.csr_matrix((na, na))
    threshold = params.min_score_threshold
    iterates = []
    for _ in range(params.max_iterations):
        new_q = _reference_cleanup(
            _margin_pruned(
                _blocked_product(trans_q, s_a + eye_a, tq_t, threads, params.c1), threshold
            ),
            threshold,
        )
        new_a = _reference_cleanup(
            _margin_pruned(
                _blocked_product(trans_a, s_q + eye_q, ta_t, threads, params.c2), threshold
            ),
            threshold,
        )
        s_q, s_a = new_q, new_a
        iterates.append(s_q)
    return iterates


def _assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def _check_chain_against_reference(
    graph, max_k, threads=1, threshold=SimRankParams.min_score_threshold
):
    params = SimRankParams(
        max_iterations=max_k, convergence_epsilon=0.0, min_score_threshold=threshold
    )
    plain = _two_sided_reference(
        _row_normalized(graph.query_adjacency),
        _row_normalized(graph.ad_adjacency),
        params,
        threads,
    )
    weighted = _two_sided_reference(
        *_transition_matrices(graph, graph.query_adjacency, graph.ad_adjacency),
        params,
        threads,
    )
    for k in range(1, max_k + 1):
        fixed = SimRankParams(
            max_iterations=k, convergence_epsilon=0.0, min_score_threshold=threshold
        )
        got = simrank(graph, fixed, threads=threads)
        assert got.iterations_run == k
        _assert_same_csr(got.matrix, plain[k - 1])
        got = weighted_simrank(graph, fixed, threads=threads)
        assert got.iterations_run == k
        want = apply_evidence(
            weighted[k - 1], graph, EvidenceKind.GEOMETRIC,
            fixed.min_score_threshold,
        )
        _assert_same_csr(got.matrix, want)


@pytest.mark.parametrize("threshold", [SimRankParams.min_score_threshold, 0.0])
def test_chain_matches_two_sided_iteration_on_demo(demo, threshold):
    _check_chain_against_reference(demo, 6, threshold=threshold)


@pytest.fixture(scope="module")
def zero_rate_graph():
    """Edges with a click rate of 0.0, each between nodes that keep a
    clicked edge, so the weighted transitions hold explicit zeros."""
    rows = [
        ("q0", "a0", 0.3), ("q0", "a1", 0.0), ("q0", "a4", 0.0),
        ("q1", "a0", 0.2), ("q1", "a1", 0.5), ("q1", "a2", 0.0),
        ("q2", "a1", 0.4), ("q2", "a2", 0.1),
        ("q3", "a2", 0.0), ("q3", "a3", 0.6),
        ("q4", "a3", 0.2), ("q4", "a4", 0.3),
        ("q5", "a0", 0.7), ("q5", "a4", 0.0),
    ]
    return ClickGraph.from_records((q, a, 100, int(r * 100), r) for q, a, r in rows)


@pytest.mark.parametrize("threshold", [SimRankParams.min_score_threshold, 0.0])
def test_chain_matches_two_sided_iteration_with_zero_rates(zero_rate_graph, threshold):
    graph = zero_rate_graph
    for trans in _transition_matrices(graph, graph.query_adjacency, graph.ad_adjacency):
        assert (trans.data == 0.0).any()
    _check_chain_against_reference(graph, 6, threshold=threshold)


def _symmetric_pattern(product):
    transpose = product.T.tocsr()
    product = transpose.T.tocsr()
    return np.array_equal(product.indptr, transpose.indptr) and np.array_equal(
        product.indices, transpose.indices
    )


def test_chain_matches_two_sided_iteration_through_underflow(monkeypatch):
    """A click rate of the smallest subnormal makes some product terms
    round to zero in one triangle only, so a product's pattern is not
    symmetric; the engine sums it as the sparse add does."""
    rows = [
        ("q0", "a0", 0.8), ("q0", "a2", 0.6), ("q0", "a3", 0.3),
        ("q1", "a1", 0.8), ("q1", "a2", 5e-324),
    ]
    graph = ClickGraph.from_records((q, a, 100, 0, r) for q, a, r in rows)
    patterns = []

    def recorded(*args):
        product = _blocked_product(*args)
        patterns.append(_symmetric_pattern(product))
        return product

    monkeypatch.setattr(simrank_module, "_blocked_product", recorded)
    weighted_simrank(graph, SimRankParams(max_iterations=3, convergence_epsilon=0.0))
    assert patterns == [True, True, False]
    monkeypatch.undo()
    for threshold in (SimRankParams.min_score_threshold, 0.0):
        _check_chain_against_reference(graph, 6, threshold=threshold)


def test_cleanup_sums_a_product_whose_pattern_is_not_symmetric():
    product = sparse.csr_matrix(
        np.array([[0.5, 0.2, 0.0], [0.0, 0.5, 0.3], [1e-4, 0.3, 0.5]])
    )
    assert not _symmetric_pattern(product)
    for threshold in (1e-4, 0.0):
        _assert_same_csr(
            _cleanup(product.copy(), threshold), _reference_cleanup(product, threshold)
        )


@pytest.fixture(scope="module")
def multi_block_graph():
    # 3000 queries span three 1024-row blocks
    return generate_synthetic(3000, 3000, 9000, seed=9)


def test_chain_matches_two_sided_iteration_across_blocks(multi_block_graph):
    _check_chain_against_reference(multi_block_graph, 6, threads=2)


def test_thread_count_never_changes_multi_block_scores(multi_block_graph):
    params = SimRankParams(max_iterations=5, convergence_epsilon=0.0)
    for score in (simrank, weighted_simrank):
        one = score(multi_block_graph, params, threads=1)
        two = score(multi_block_graph, params, threads=2)
        _assert_same_csr(one.matrix, two.matrix)


# -- dump format -----------------------------------------------------------


def test_dump_is_sorted_and_fixed_precision(demo):
    scores = simrank(demo, exact_params(5))
    buf = io.StringIO()
    scores.write(buf)
    lines = buf.getvalue().splitlines()
    assert lines == sorted(lines)
    for line in lines:
        a, b, value = line.split("\t")
        assert a < b
        assert len(value.split(".")[1]) == 6


def test_dump_round_trip(tmp_path, demo):
    scores = simrank(demo, exact_params(5))
    path = tmp_path / "scores.tsv"
    scores.write(path)
    again = SimilarityScores.read(path, demo)
    a = scores.matrix.toarray().round(6)
    assert np.allclose(again.matrix.toarray(), a, atol=5e-7)
    assert again.method == Method.SIMPLE.value


def test_dump_repeats_identically(tmp_path, demo):
    scores = simrank(demo, exact_params(5))
    p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
    scores.write(p1)
    scores.write(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_non_default_method_announces_itself(demo):
    scores = simrank(demo, exact_params(2))
    relabeled = SimilarityScores(
        query_labels=scores.query_labels,
        matrix=scores.matrix,
        iterations_run=scores.iterations_run,
        converged=scores.converged,
        method=Method.WEIGHTED.value,
    )
    buf = io.StringIO()
    relabeled.write(buf)
    assert buf.getvalue().startswith("# method=weighted\n")



@pytest.mark.parametrize(
    "lines, line_no, message",
    [
        (["camera\tpc\t0.5", "pc\ttv\t0.2", "pc\tcamera\t0.4"], 3, "listed twice"),
        (["camera\tpc\t0.5", "camera\tpc\t0.5"], 2, "listed twice"),
        (["camera\tpc\t0.5", "tv\ttv\t0.3"], 2, "itself"),
        (["camera\tpc\tnan"], 1, "not finite"),
        (["# method=weighted", "camera\tpc\t0.5", "pc\ttv\tinf"], 3, "not finite"),
        (["camera\tpc"], 1, "expected 3 tab-separated fields"),
        (["camera\tpc\t0.5", "pc\ttv\t0.1\textra"], 2, "expected 3 tab"),
        (["camera\tpc", "pc\ttv\t0.1\textra"], 1, "expected 3 tab"),
        (["camera\tpc\t0.5", "pc\tnosuch\t0.1"], 2, "unknown query label"),
        (["camera\tpc\thalf"], 1, "not a number"),
        (["camera\tpc\t1.5"], 1, r"outside \[0, 1\] for method=simple"),
        (["camera\tpc\t0.5", "pc\ttv\t-0.1"], 2, "outside"),
        (["# method=evidence", "camera\tpc\t1.01"], 2, "outside"),
        (["# method=pearson", "camera\tpc\t-0.5", "pc\ttv\t-1.5"], 3, "outside"),
        (["# method=common", "camera\tpc\t3", "pc\ttv\t-1"], 3, "outside"),
        (["camera\tpc\t0.5", "# method=cosine"], 2, "unknown method 'cosine'"),
    ],
)
def test_dump_reader_rejects_bad_pairs(tmp_path, demo, lines, line_no, message):
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"scores.tsv:{line_no}: .*{message}"):
        SimilarityScores.read(path, demo)


def test_dump_reader_names_the_earliest_fault(tmp_path, demo):
    path = tmp_path / "scores.tsv"
    path.write_text("camera\tpc\t0.5\npc\tcamera\t0.5\ntv\ttv\t0.1\n")
    with pytest.raises(ValueError, match="scores.tsv:2: pair listed twice"):
        SimilarityScores.read(path, demo)


@pytest.mark.parametrize(
    "lines, method",
    [
        (["# method=pearson", "camera\tpc\t-0.5", "pc\ttv\t1"], "pearson"),
        (["# method=common", "camera\tpc\t3"], "common"),
        (["Camera\t  PC \t0.5", "", "  ", "# a comment", "pc\ttv\t0.25"], "simple"),
    ],
)
def test_dump_reader_accepts_each_methods_range(tmp_path, demo, lines, method):
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines))  # no newline after the last line
    table = SimilarityScores.read(path, demo)
    assert table.method == method
    assert table.pair_count == len([l for l in lines if l.count("\t") == 2])


@pytest.fixture(scope="module")
def synthetic_300():
    return generate_synthetic(300, 300, 900, seed=0)


def _dump_text(table):
    buf = io.StringIO()
    table.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("chunk_bytes", [None, 97])
@pytest.mark.parametrize("score", ["simple", "pearson"])
def test_multi_chunk_dump_reads_back_the_written_table(
    tmp_path, monkeypatch, synthetic_300, chunk_bytes, score
):
    if chunk_bytes is not None:
        monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", chunk_bytes)
    if score == "simple":
        table = simrank(synthetic_300, SimRankParams(max_iterations=7))
    else:
        table = pearson_scores(synthetic_300)
    path = tmp_path / "scores.tsv"
    path.write_text(_dump_text(table))
    lines = path.read_text().splitlines()
    if chunk_bytes is not None:
        assert path.stat().st_size > 20 * chunk_bytes
    if score == "pearson":
        assert lines[0] == "# method=pearson" and lines[-1].startswith("# degenerate")

    again = SimilarityScores.read(path, synthetic_300)
    assert again.method == table.method
    want = table.matrix.tocsr()
    want.sort_indices()
    assert np.array_equal(again.matrix.indptr, want.indptr)
    assert np.array_equal(again.matrix.indices, want.indices)
    printed = np.array([float(f"{v:.6f}") for v in want.data.tolist()])
    assert np.array_equal(again.matrix.data, printed)


def _valid_dump_lines(graph, count):
    table = simrank(graph, SimRankParams(max_iterations=7))
    return _dump_text(table).splitlines()[:count]


# each corruption of line ``at`` (1-based) and the fault it must report;
# ``lines[1]`` is the pair the duplicate repeats, in swapped order
CORRUPTIONS = {
    "malformed": (lambda lines, at: "\t".join(lines[at - 1].split("\t")[:2]),
                  "expected 3 tab-separated fields"),
    "unknown label": (lambda lines, at: "no such query\t" + lines[at - 1].split("\t", 1)[1],
                      "unknown query label"),
    "score not a number": (lambda lines, at: lines[at - 1].rsplit("\t", 1)[0] + "\tn/a",
                           "not a number"),
    "self pair": (lambda lines, at: "{0}\t{0}\t0.5".format(lines[at - 1].split("\t")[0]),
                  "itself"),
    "not finite": (lambda lines, at: lines[at - 1].rsplit("\t", 1)[0] + "\tinf",
                   "not finite"),
    "out of range": (lambda lines, at: lines[at - 1].rsplit("\t", 1)[0] + "\t1.000001",
                     "outside"),
    "duplicate": (lambda lines, at: "{1}\t{0}\t{2}".format(*lines[1].split("\t")),
                  "listed twice"),
}


@pytest.mark.parametrize("at", [15, 18, 21, 22])
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_dump_reader_fault_in_a_later_chunk(tmp_path, monkeypatch, synthetic_300, kind, at):
    monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", 100)
    lines = _valid_dump_lines(synthetic_300, 40)
    corrupt, message = CORRUPTIONS[kind]
    lines[at - 1] = corrupt(lines, at)
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"scores.tsv:{at}: .*{message}"):
        SimilarityScores.read(path, synthetic_300)


@pytest.mark.parametrize("second", [16, 19, 30])
@pytest.mark.parametrize(
    "earlier, later",
    [
        ("unknown label", "malformed"),
        ("malformed", "unknown label"),
        ("score not a number", "unknown label"),
        ("self pair", "malformed"),
        ("duplicate", "malformed"),
        ("out of range", "score not a number"),
    ],
)
def test_dump_reader_reports_the_earlier_of_two_faults(
    tmp_path, monkeypatch, synthetic_300, earlier, later, second
):
    monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", 100)
    lines = _valid_dump_lines(synthetic_300, 40)
    first = 15
    corrupt, message = CORRUPTIONS[earlier]
    lines[first - 1] = corrupt(lines, first)
    corrupt_later, _ = CORRUPTIONS[later]
    lines[second - 1] = corrupt_later(lines, second)
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"scores.tsv:{first}: .*{message}"):
        SimilarityScores.read(path, synthetic_300)


@pytest.mark.parametrize("at", [8, 11, 14])
@pytest.mark.parametrize(
    "skipped", ["", "\t\t", "  \t \t ", " ", "# a comment", "# degenerate\tq1\tq2"]
)
def test_dump_reader_skips_blank_and_comment_lines_in_any_chunk(
    tmp_path, monkeypatch, synthetic_300, skipped, at
):
    monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", 100)
    lines = _valid_dump_lines(synthetic_300, 30)
    clean = tmp_path / "clean.tsv"
    clean.write_text("\n".join(lines) + "\n")
    want = SimilarityScores.read(clean, synthetic_300).matrix
    lines.insert(at - 1, skipped)
    path = tmp_path / "scores.tsv"
    path.write_text("\n".join(lines) + "\n")
    _assert_same_csr(SimilarityScores.read(path, synthetic_300).matrix, want)
    # a fault after the skipped line is reported at its own line number
    lines[at + 2] = CORRUPTIONS["unknown label"][0](lines, at + 3)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"scores.tsv:{at + 3}: .*unknown query label"):
        SimilarityScores.read(path, synthetic_300)


def test_dump_reader_treats_hash_lines_as_comments(tmp_path):
    # a line starting with '#' is a comment even where it would parse as
    # a pair, in the first chunk and in any later one
    graph = ClickGraph.from_records(
        [(q, "ad", 1, 1, 1.0) for q in ("#deals", "deals", "sale")]
    )
    path = tmp_path / "scores.tsv"
    for lines in (["#deals\tsale\t0.5", "deals\tsale\t0.5"],
                  ["deals\tsale\t0.5", "#deals\tdeals\t0.5"]):
        path.write_text("\n".join(lines) + "\n")
        table = SimilarityScores.read(path, graph)
        assert table.pair_count == 1
        assert table.matrix[1, 2] == 0.5


def test_dump_writer_refuses_query_labels_read_back_as_comments(tmp_path):
    # '#deals' would sort first on its lines and vanish on reading
    graph = ClickGraph.from_records(
        [(q, "ad", 1, 1, 1.0) for q in ("sale", "#deals", "deals", "#promo")]
    )
    table = simrank(graph, SimRankParams(max_iterations=2))
    assert table.pair_count == 6
    path = tmp_path / "scores.tsv"
    with pytest.raises(ValueError, match="'#deals' starts with '#'"):
        table.write(path)
    assert not path.exists()
    out = io.StringIO()
    with pytest.raises(ValueError, match="'#deals'"):
        table.write(out)
    assert out.getvalue() == ""
