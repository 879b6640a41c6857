"""Shared-ad counting and Pearson correlation baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clicksim.baselines import (
    PearsonContext,
    common_ad_count,
    common_ad_scores,
    pearson,
    pearson_scores,
)
from clicksim.evidence import EvidenceKind, _evidence_matrix, common_neighbor_counts
from clicksim.graph import ClickGraph, demo_graph, generate_synthetic, query_node

# every off-diagonal shared-ad count for the five demo queries
DEMO_COMMON = {
    ("pc", "camera"): 1,
    ("pc", "digital camera"): 1,
    ("pc", "tv"): 0,
    ("pc", "flower"): 0,
    ("camera", "digital camera"): 2,
    ("camera", "tv"): 1,
    ("camera", "flower"): 0,
    ("digital camera", "tv"): 1,
    ("digital camera", "flower"): 0,
    ("tv", "flower"): 0,
}


def test_common_ad_counts_on_demo(demo):
    for (a, b), expected in DEMO_COMMON.items():
        assert common_ad_count(demo, demo.query_id(a), demo.query_id(b)) == expected
        assert common_ad_count(demo, demo.query_id(b), demo.query_id(a)) == expected


@pytest.mark.parametrize("graph_seed", [42, 7])
def test_common_ad_count_equals_the_neighbor_loop(graph_seed):
    graph = generate_synthetic(600, 600, 1800, seed=graph_seed)
    rng = np.random.default_rng(graph_seed)
    co = graph.co_clicks
    top = np.argsort(-co.data, kind="stable")[:3000]
    pairs = rng.integers(graph.num_queries, size=(3000, 2)).tolist()
    pairs += list(zip(co.row[top].tolist(), co.col[top].tolist()))
    for i, j in pairs:
        q, q2 = query_node(i), query_node(j)
        ads = {ad.index for ad, _ in graph.neighbors(q)}
        want = sum(1 for ad, _ in graph.neighbors(q2) if ad.index in ads)
        assert common_ad_count(graph, q, q2) == want


def test_common_ad_count_rejects_ad_nodes(demo):
    with pytest.raises(ValueError, match="between queries"):
        common_ad_count(demo, demo.query_id("pc"), demo.ad_id("hp.com"))


@pytest.fixture
def correlated_graph():
    # qa/qb put aligned rate deviations on the shared ads x and y, qc
    # opposes them, qd is flat, and qf's mean is pulled off 0.5 by a
    # private third ad
    return ClickGraph.from_records(
        [
            ("qa", "x", 100, 80, 0.8), ("qa", "y", 100, 20, 0.2),
            ("qb", "x", 100, 90, 0.9), ("qb", "y", 100, 10, 0.1),
            ("qc", "x", 100, 10, 0.1), ("qc", "y", 100, 90, 0.9),
            ("qd", "x", 100, 50, 0.5), ("qd", "y", 100, 50, 0.5),
            ("qf", "x", 100, 60, 0.6), ("qf", "y", 100, 40, 0.4),
            ("qf", "z", 100, 80, 0.8),
            ("lone", "w", 100, 30, 0.3),
        ]
    )


def test_pearson_perfect_positive(correlated_graph):
    g = correlated_graph
    r = pearson(g, g.query_id("qa"), g.query_id("qb"))
    assert r == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative(correlated_graph):
    g = correlated_graph
    r = pearson(g, g.query_id("qa"), g.query_id("qc"))
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_means_run_over_all_edges(correlated_graph):
    # qf's mean is (0.6+0.4+0.8)/3 = 0.6, so on the shared ads its
    # deviations are (0, -0.2) and the correlation with qa lands at
    # 1/sqrt(2) rather than the 1.0 a shared-only mean would give
    g = correlated_graph
    r = pearson(g, g.query_id("qa"), g.query_id("qf"))
    assert r == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_pearson_flat_shared_weights_degenerate(correlated_graph):
    # qd has zero deviation on every shared ad: no direction to agree
    # with, so the pair scores 0 and is flagged in the bulk table
    g = correlated_graph
    assert pearson(g, g.query_id("qa"), g.query_id("qd")) == 0.0
    scores = pearson_scores(g)
    i, d = g.query_id("qa").index, g.query_id("qd").index
    assert (min(i, d), max(i, d)) in scores.degenerate_pairs


def test_pearson_no_shared_ads_scores_zero(correlated_graph):
    g = correlated_graph
    assert pearson(g, g.query_id("qa"), g.query_id("lone")) == 0.0
    scores = pearson_scores(g)
    i, j = g.query_id("qa").index, g.query_id("lone").index
    assert (min(i, j), max(i, j)) not in scores.degenerate_pairs


def test_pearson_rejects_ad_nodes(demo):
    with pytest.raises(ValueError, match="between queries"):
        pearson(demo, demo.query_id("pc"), demo.ad_id("hp.com"))


def test_pearson_context_reuse_matches_fresh(correlated_graph):
    g = correlated_graph
    context = PearsonContext.from_graph(g)
    qa, qb = g.query_id("qa"), g.query_id("qb")
    assert pearson(g, qa, qb, context) == pearson(g, qa, qb)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pearson_bounded_and_symmetric(seed):
    graph = generate_synthetic(
        num_queries=12, num_ads=8, num_edges=30, powerlaw_exponent=2.0, seed=seed
    )
    context = PearsonContext.from_graph(graph)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        i, j = rng.integers(0, graph.num_queries, size=2)
        qi = query_node(int(i))
        qj = query_node(int(j))
        r = pearson(graph, qi, qj, context)
        assert -1.0 <= r <= 1.0
        assert r == pearson(graph, qj, qi, context)
        if common_ad_count(graph, qi, qj) == 0 and i != j:
            assert r == 0.0


def test_pearson_scores_table_matches_pointwise(correlated_graph):
    g = correlated_graph
    scores = pearson_scores(g)
    context = PearsonContext.from_graph(g)
    for a in g.query_labels:
        for b in g.query_labels:
            if a >= b:
                continue
            expected = pearson(g, g.query_id(a), g.query_id(b), context)
            got = scores.matrix[g.query_id(a).index, g.query_id(b).index]
            assert got == pytest.approx(expected, abs=1e-15)
    assert scores.method == "pearson"
    assert scores.iterations_run == 0
    assert scores.converged


def test_pearson_dump_carries_method_and_degenerate_rows(correlated_graph, tmp_path):
    scores = pearson_scores(correlated_graph)
    path = tmp_path / "pearson.tsv"
    scores.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# method=pearson"
    assert any(line.startswith("# degenerate\t") for line in lines)


def test_common_ad_scores_table(demo):
    scores = common_ad_scores(demo)
    assert scores.method == "common"
    for (a, b), expected in DEMO_COMMON.items():
        i, j = demo.query_id(a).index, demo.query_id(b).index
        assert scores.matrix[i, j] == expected
        assert scores.matrix[j, i] == expected
    # only co-clicked pairs are stored
    assert scores.pair_count == sum(1 for v in DEMO_COMMON.values() if v > 0)


# -- the per-pair builds the sparse products replaced, kept as references --


def _reference_co_neighbor_pairs(graph):
    binary = graph.query_adjacency.copy()
    binary.data = np.ones_like(binary.data)
    counts = (binary @ binary.T).tocoo()
    keep = counts.row < counts.col
    return sparse.coo_matrix(
        (counts.data[keep], (counts.row[keep], counts.col[keep])),
        shape=counts.shape,
    )


def _reference_pearson_pair(graph, i, j, means):
    weights_i = {
        ad.index: stats.expected_click_rate
        for ad, stats in graph.neighbors(query_node(i))
    }
    shared = 0
    num = 0.0
    den_i = 0.0
    den_j = 0.0
    for ad, stats in graph.neighbors(query_node(j)):
        if ad.index not in weights_i:
            continue
        shared += 1
        di = weights_i[ad.index] - means[i]
        dj = stats.expected_click_rate - means[j]
        num += di * dj
        den_i += di * di
        den_j += dj * dj
    if shared == 0:
        return 0.0, False
    if den_i <= 0.0 or den_j <= 0.0:
        return 0.0, True
    r = num / np.sqrt(den_i * den_j)
    return float(np.clip(r, -1.0, 1.0)), False


def _reference_pearson_scores(graph):
    means = PearsonContext.from_graph(graph).mean_weight
    pairs = _reference_co_neighbor_pairs(graph)
    rows, cols, vals = [], [], []
    degenerate = []
    for i, j in zip(pairs.row, pairs.col):
        r, is_degenerate = _reference_pearson_pair(graph, int(i), int(j), means)
        if is_degenerate:
            degenerate.append((int(i), int(j)))
        if r != 0.0:
            rows += [i, j]
            cols += [j, i]
            vals += [r, r]
    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(graph.num_queries, graph.num_queries)
    )
    return matrix, tuple(degenerate)


def _reference_common_ad_matrix(graph):
    pairs = _reference_co_neighbor_pairs(graph)
    rows = np.concatenate([pairs.row, pairs.col])
    cols = np.concatenate([pairs.col, pairs.row])
    vals = np.concatenate([pairs.data, pairs.data]).astype(np.float64)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(graph.num_queries, graph.num_queries)
    )


def _reference_common_neighbor_counts(graph):
    binary = graph.query_adjacency.copy()
    binary.data = np.ones_like(binary.data)
    counts = binary @ binary.T
    coo = counts.tocoo()
    keep = coo.row != coo.col
    return sparse.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=counts.shape
    )


def _reference_evidence_matrix(graph, kind):
    out = _reference_common_neighbor_counts(graph).astype(np.float64)
    if kind is EvidenceKind.GEOMETRIC:
        out.data = 1.0 - np.exp2(-out.data)
    else:
        out.data = -np.expm1(-out.data)
    return out


def _assert_same_csr(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.dtype == expected.data.dtype == np.float64
    # bit patterns, so -0.0 and 0.0 or two nans would not pass as equal
    assert np.array_equal(got.data.view(np.int64), expected.data.view(np.int64))


def _bulk_graphs():
    return [
        pytest.param(lambda: generate_synthetic(600, 600, 1800, 2.2, seed=42), id="600-s42"),
        pytest.param(lambda: generate_synthetic(600, 600, 1800, 2.2, seed=7), id="600-s7"),
        pytest.param(lambda: generate_synthetic(2000, 2000, 6000, 2.2, seed=42), id="2000-s42"),
        pytest.param(lambda: generate_synthetic(2000, 2000, 6000, 2.2, seed=7), id="2000-s7"),
        pytest.param(demo_graph, id="demo"),
    ]


@pytest.mark.parametrize("make_graph", _bulk_graphs())
def test_pearson_scores_equal_the_per_pair_loop(make_graph):
    graph = make_graph()
    scores = pearson_scores(graph)
    matrix, degenerate = _reference_pearson_scores(graph)
    _assert_same_csr(scores.matrix, matrix)
    assert scores.degenerate_pairs == degenerate


def test_pearson_scores_equal_the_loop_on_the_correlated_graph(correlated_graph):
    scores = pearson_scores(correlated_graph)
    matrix, degenerate = _reference_pearson_scores(correlated_graph)
    _assert_same_csr(scores.matrix, matrix)
    assert scores.degenerate_pairs == degenerate
    assert len(degenerate) == 4  # qd is flat on the shared ads


def test_pointwise_pearson_equals_the_table(correlated_graph):
    g = correlated_graph
    means = PearsonContext.from_graph(g).mean_weight
    for i in range(g.num_queries):
        for j in range(g.num_queries):
            if i != j:
                r = pearson(g, query_node(i), query_node(j))
                assert r == _reference_pearson_pair(g, i, j, means)[0]


@pytest.mark.parametrize("make_graph", _bulk_graphs())
def test_co_click_builds_equal_their_old_builds(make_graph):
    graph = make_graph()
    pattern, reference = graph.co_clicks, _reference_co_neighbor_pairs(graph)
    for name in ("row", "col", "data"):
        assert np.array_equal(getattr(pattern, name), getattr(reference, name))
    _assert_same_csr(common_ad_scores(graph).matrix, _reference_common_ad_matrix(graph))
    _assert_same_csr(
        common_neighbor_counts(graph), _reference_common_neighbor_counts(graph)
    )
    for kind in EvidenceKind:
        _assert_same_csr(
            _evidence_matrix(graph, kind), _reference_evidence_matrix(graph, kind)
        )
