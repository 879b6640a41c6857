"""Graph construction, file formats, components, and the synthetic generator."""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from hypothesis import strategies as st

from clicksim.graph import (
    ClickGraph,
    GraphFormatError,
    NodeKind,
    ad_node,
    canonical_label,
    complete_bipartite,
    demo_graph,
    extract_components,
    generate_synthetic,
    load_graph,
    query_node,
    remove_edges,
    save_graph,
)


def test_canonical_label_folds_case_and_whitespace():
    assert canonical_label("  Digital\t CAMERA ") == "digital camera"


def test_from_records_builds_indices(demo):
    assert demo.num_queries == 5
    assert demo.num_ads == 4
    assert demo.num_edges == 8
    pc = demo.query_id("pc")
    assert pc.kind is NodeKind.QUERY
    assert demo.degree(pc) == 1
    assert demo.degree(demo.query_id("camera")) == 2


def test_from_records_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        ClickGraph.from_records(
            [("q", "a", 10, 1, 0.1), ("Q ", "a", 10, 2, 0.2)]
        )


@pytest.mark.parametrize(
    "imp,clk,ecr",
    [(10, 11, 0.1), (10, 1, -0.1), (10, 1, 1.5), (-1, 0, 0.1)],
)
def test_from_records_rejects_bad_stats(imp, clk, ecr):
    with pytest.raises(GraphFormatError):
        ClickGraph.from_records([("q", "a", imp, clk, ecr)])


def test_neighbors_report_stats(demo):
    nbrs = demo.neighbors(demo.query_id("camera"))
    labels = sorted(demo.label(ad) for ad, _ in nbrs)
    assert labels == ["bestbuy.com", "hp.com"]
    for _, stats in nbrs:
        assert stats.expected_click_rate == 0.1


def test_save_load_round_trip(tmp_path, demo):
    path = tmp_path / "g.tsv"
    save_graph(demo, path)
    again = load_graph(path)
    assert again.query_labels == demo.query_labels
    assert again.ad_labels == demo.ad_labels
    assert list(again.edges()) == list(demo.edges())


def test_save_is_deterministic(tmp_path, demo):
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_graph(demo, p1)
    save_graph(demo, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("q\ta\t10\t1\n")  # missing the rate column
    with pytest.raises(GraphFormatError, match="line 1"):
        load_graph(path)


def test_load_names_the_line_of_a_duplicate_edge(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text(
        "# clicks\n"
        "\n"
        "q1\ta1\t10\t1\t0.1\n"
        "q2\ta1\t10\t1\t0.1\n"
        "Q1\ta1\t10\t2\t0.2\n"
    )
    with pytest.raises(GraphFormatError, match=r"^line 5: duplicate edge \('q1', 'a1'\)$"):
        load_graph(path)


def test_load_reports_the_earliest_fault(tmp_path):
    path = tmp_path / "two.tsv"
    path.write_text(
        "q1\ta1\t10\t1\t0.1\n"
        "\ta2\t10\t1\t0.1\n"
        "q1\ta1\t10\t1\t0.1\n"
        "q3\ta1\t10\n"
    )
    with pytest.raises(GraphFormatError, match=r"^line 2: empty query or ad label$"):
        load_graph(path)


def test_load_names_the_line_of_a_count_int64_cannot_hold(tmp_path):
    path = tmp_path / "big.tsv"
    path.write_text("q1\ta1\t10\t1\t0.1\nq2\ta1\t100000000000000000000\t1\t0.1\n")
    with pytest.raises(GraphFormatError, match=r"^line 2: non-numeric impressions/clicks/ecr$"):
        load_graph(path)
    # an earlier check fault is named first
    path.write_text("q1\ta1\t5\t9\t0.1\nq2\ta1\t100000000000000000000\t1\t0.1\n")
    with pytest.raises(GraphFormatError, match=r"^line 1: clicks \(9\) exceed impressions \(5\)$"):
        load_graph(path)


def test_writers_refuse_query_labels_read_back_as_comments(tmp_path):
    graph = ClickGraph.from_records(
        [("q", "a", 10, 1, 0.1), ("#deals", "a", 10, 1, 0.1), ("#sale", "a", 10, 1, 0.1)]
    )
    path = tmp_path / "g.tsv"
    with pytest.raises(ValueError, match="'#deals' starts with '#'"):
        save_graph(graph, path)
    assert not path.exists()
    out = io.StringIO()
    with pytest.raises(ValueError, match="'#deals'"):
        save_graph(graph, out)
    assert out.getvalue() == ""
    # a '#' inside a label or on an ad is harmless: it never starts a line
    fine = ClickGraph.from_records([("q#1", "#a", 10, 1, 0.1), ("q2", "#a", 10, 1, 0.1)])
    save_graph(fine, path)
    assert list(load_graph(path).edges()) == list(fine.edges())


def test_complete_bipartite_shapes():
    g = complete_bipartite(num_ads=3, num_queries=2, weight=0.1)
    assert g.num_ads == 3 and g.num_queries == 2
    assert g.num_edges == 6


def test_remove_edges_drops_only_named(demo):
    pruned = remove_edges(demo, [(demo.query_id("pc"), demo.ad_id("hp.com"))])
    assert pruned.num_edges == demo.num_edges - 1
    assert pruned.num_queries == demo.num_queries  # node stays, isolated
    assert not pruned.has_edge(demo.query_id("pc"), demo.ad_id("hp.com"))


def test_remove_missing_edge_is_an_error(demo):
    with pytest.raises(ValueError, match="missing edge"):
        remove_edges(demo, [(demo.query_id("pc"), demo.ad_id("orchids.com"))])


def test_extract_components_splits_demo(demo):
    comps = extract_components(demo)
    assert len(comps) == 2
    assert comps[0].num_edges == 6  # largest first
    assert comps[1].num_edges == 2
    assert "flower" in comps[1].query_labels


def _reference_components(graph):
    # the per-component np.isin build the grouped one replaced
    nq = graph.num_queries
    adj = sparse.bmat(
        [[None, graph.query_adjacency], [graph.ad_adjacency, None]], format="csr"
    )
    n_comp, labels = sparse.csgraph.connected_components(adj, directed=False)
    members = [[] for _ in range(n_comp)]
    for node, c in enumerate(labels):
        members[c].append(node)
    out = []
    for nodes in members:
        q_nodes = [n for n in nodes if n < nq]
        a_nodes = [n - nq for n in nodes if n >= nq]
        q_map = {old: new for new, old in enumerate(q_nodes)}
        a_map = {old: new for new, old in enumerate(a_nodes)}
        mask = np.isin(graph._eq, q_nodes)
        out.append(
            ClickGraph(
                [graph.query_labels[i] for i in q_nodes],
                [graph.ad_labels[j] for j in a_nodes],
                np.array([q_map[i] for i in graph._eq[mask]], dtype=np.int64),
                np.array([a_map[j] for j in graph._ea[mask]], dtype=np.int64),
                graph._imp[mask],
                graph._clk[mask],
                graph._ecr[mask],
            )
        )
    out.sort(key=lambda g: -g.num_edges)
    return out


@pytest.mark.parametrize(
    "make_graph",
    [
        demo_graph,
        lambda: generate_synthetic(600, 600, 1800, seed=12),
        lambda: generate_synthetic(2000, 2000, 6000, seed=42),
        lambda: generate_synthetic(300, 40, 900, seed=3),
    ],
    ids=["demo", "600-s12", "2000-s42", "300x40-s3"],
)
def test_extract_components_equal_the_per_component_build(make_graph):
    graph = make_graph()
    got, expected = extract_components(graph), _reference_components(graph)
    assert len(got) == len(expected) > 1
    for g, e in zip(got, expected):
        assert g.query_labels == e.query_labels
        assert g.ad_labels == e.ad_labels
        for name in ("_eq", "_ea", "_imp", "_clk", "_ecr"):
            a, b = getattr(g, name), getattr(e, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# -- the adjacency index ----------------------------------------------------


def _reference_ad_adjacency(graph):
    # the lexsort build the transposed query adjacency replaced
    order = np.lexsort((graph._eq, graph._ea))
    counts = np.bincount(graph._ea, minlength=graph.num_ads)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sparse.csr_matrix(
        (graph._ecr[order], graph._eq[order].astype(np.int32), indptr.astype(np.int64)),
        shape=(graph.num_ads, graph.num_queries),
    )


def _with_isolated_nodes():
    demo = demo_graph()
    flower, pc = demo.query_id("flower"), demo.query_id("pc")
    return remove_edges(
        demo,
        [(pc, demo.ad_id("hp.com"))]
        + [(flower, ad) for ad, _ in demo.neighbors(flower)],
    )


@pytest.mark.parametrize(
    "make_graph",
    [
        demo_graph,
        lambda: ClickGraph(["q0", "q1"], ["a0"], *([],) * 5),
        _with_isolated_nodes,
        # zero rates are edges too, stored like any other weight
        lambda: ClickGraph.from_records(
            [("q", "b", 10, 1, 0.1), ("r", "a", 5, 0, 0.0), ("q", "a", 10, 0, 0.0)]
        ),
        lambda: generate_synthetic(600, 600, 1800, seed=42),
    ],
    ids=["demo", "edgeless", "isolated", "zero-rates", "600-s42"],
)
def test_ad_adjacency_and_neighbors_equal_the_references(make_graph):
    graph = make_graph()
    got, want = graph.ad_adjacency, _reference_ad_adjacency(graph)
    assert got.shape == want.shape
    for name, dtype in (("indptr", np.int32), ("indices", np.int32), ("data", np.float64)):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name
    edges = list(graph.edges())
    for j in range(graph.num_ads):
        ad = ad_node(j)
        # edges() runs in (query, ad) order, so these ascend by query
        assert graph.neighbors(ad) == [(q, stats) for q, a, stats in edges if a == ad]
        assert graph.degree(ad) == sum(a == ad for _, a, _ in edges)
    for i in range(graph.num_queries):
        query = query_node(i)
        assert graph.neighbors(query) == [(a, stats) for q, a, stats in edges if q == query]


# -- synthetic generator -------------------------------------------------


def _snapshot(g):
    return [
        (q, a, s.impressions, s.clicks, s.expected_click_rate)
        for q, a, s in g.edges()
    ]


def test_generator_is_deterministic():
    a = _snapshot(generate_synthetic(300, 40, 900, seed=3))
    b = _snapshot(generate_synthetic(300, 40, 900, seed=3))
    c = _snapshot(generate_synthetic(300, 40, 900, seed=4))
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "nq,na,ne",
    [(5, 4, 0), (5, 4, 20), (10, 3, 7), (2000, 50, 25000), (60, 60, 500)],
)
def test_generator_honors_exact_counts(nq, na, ne):
    g = generate_synthetic(nq, na, ne, seed=1)
    assert g.num_edges == ne
    seen = {(q, a) for q, a, _ in g.edges()}
    assert len(seen) == ne  # no parallel edges


def test_generator_stats_are_valid():
    g = generate_synthetic(500, 500, 2000, seed=9)
    for _, _, stats in g.edges():
        assert 0 < stats.impressions
        assert 0 <= stats.clicks <= stats.impressions
        assert 0.0 < stats.expected_click_rate <= 1.0


@pytest.mark.parametrize(
    "nq,na,ne,exc",
    [
        (0, 4, 0, "at least one"),
        (4, 4, 17, "cannot place"),
        (4, 4, -1, "negative"),
    ],
)
def test_generator_rejects_bad_requests(nq, na, ne, exc):
    with pytest.raises(ValueError, match=exc):
        generate_synthetic(nq, na, ne)


def test_generator_rejects_flat_exponent():
    with pytest.raises(ValueError, match="exceed 1"):
        generate_synthetic(10, 10, 5, powerlaw_exponent=1.0)


def _fitted_tail_slope(graph):
    degree = Counter()
    for q, _, _ in graph.edges():
        degree[q] += 1
    hist = Counter(degree.values())
    ks = np.array(sorted(k for k in hist if k >= 2), dtype=float)
    counts = np.array([hist[int(k)] for k in ks], dtype=float)
    slope, _ = np.polyfit(np.log(ks), np.log(counts), 1)
    return -slope


@pytest.mark.parametrize("exponent", [2.0, 2.2, 3.0])
def test_generator_degree_tail_tracks_requested_exponent(exponent):
    g = generate_synthetic(40_000, 40_000, 100_000, exponent, seed=11)
    assert abs(_fitted_tail_slope(g) - exponent) < 0.5


def test_generator_large_sparse_graph_has_dominant_component():
    g = generate_synthetic(20_000, 20_000, 60_000, seed=7)
    comps = extract_components(g)
    assert comps[0].num_edges > 0.5 * g.num_edges
    assert len(comps) > 1  # satellites exist


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_generator_any_seed_satisfies_contract(seed):
    g = generate_synthetic(50, 30, 120, seed=seed)
    assert g.num_edges == 120
    assert len({(q, a) for q, a, _ in g.edges()}) == 120


def test_node_id_helpers():
    assert query_node(3).kind is NodeKind.QUERY
    assert ad_node(3).kind is NodeKind.AD
    assert query_node(3) != ad_node(3)
