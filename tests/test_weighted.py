"""Weight-aware transitions, the weighted engine, and the consistency checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clicksim.baselines import common_ad_count
from clicksim.evaluation import desirability
from clicksim.evidence import evidence_simrank
from clicksim.graph import (
    ClickGraph,
    NodeKind,
    ad_node,
    demo_graph,
    generate_synthetic,
    query_node,
)
from clicksim.simrank import (
    Method,
    SimRankParams,
    _row_stats,
    _transition_matrices,
    simrank,
)
from clicksim.weighted import (
    check_consistency,
    normalized_weight,
    spread,
    transition_probabilities,
    variance,
    weighted_simrank,
)
from conftest import sim_by_label, star_union_graph


def exact_params(k=10):
    return SimRankParams(
        max_iterations=k, convergence_epsilon=0.0, min_score_threshold=0.0
    )


def _worked_example():
    # q spends 0.3/0.1 across two ads; each ad's incident weights differ
    # by 0.2, giving both ads the same mild variance of 0.01
    return ClickGraph.from_records(
        [
            ("q", "i", 100, 30, 0.3),
            ("q", "j", 100, 10, 0.1),
            ("p", "i", 100, 50, 0.5),
            ("p", "j", 100, 30, 0.3),
        ]
    )


@pytest.fixture
def worked_example():
    return _worked_example()


def test_variance_examples(worked_example, demo):
    g = worked_example
    assert variance(g, g.ad_id("i")) == pytest.approx(0.01, abs=1e-15)
    assert variance(g, g.ad_id("j")) == pytest.approx(0.01, abs=1e-15)
    # uniform and degree-1 nodes sit at zero
    assert variance(demo, demo.ad_id("hp.com")) == pytest.approx(0.0, abs=1e-30)
    assert variance(demo, demo.query_id("pc")) == 0.0


def test_variance_requires_incident_edges(demo):
    lonely = ClickGraph(["q"], ["a"], [], [], [], [], [])
    with pytest.raises(ValueError, match="no incident edges"):
        variance(lonely, query_node(0))


def test_spread_examples(worked_example):
    g = worked_example
    assert spread(g, g.ad_id("i")) == pytest.approx(math.exp(-0.01), abs=1e-12)
    assert spread(g, g.query_id("q")) == pytest.approx(math.exp(-0.01), abs=1e-12)


def test_spread_drops_as_weights_diverge():
    def with_second_weight(w):
        g = ClickGraph.from_records(
            [("q1", "a", 100, 50, 0.5), ("q2", "a", 100, 50, w)]
        )
        return spread(g, g.ad_id("a"))

    assert with_second_weight(0.5) == 1.0
    spreads = [with_second_weight(w) for w in (0.5, 0.6, 0.8, 0.99)]
    assert all(b < a for a, b in zip(spreads, spreads[1:]))


def test_normalized_weight_examples(worked_example):
    g = worked_example
    q = g.query_id("q")
    assert normalized_weight(g, q, g.ad_id("i")) == pytest.approx(0.75, abs=1e-15)
    assert normalized_weight(g, q, g.ad_id("j")) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        normalized_weight(g, q, g.ad_id("nowhere"))


def test_transition_row_worked_example(worked_example):
    g = worked_example
    row = transition_probabilities(g, g.query_id("q"))
    out = {g.label(n): p for n, p in row.out_probs.items()}
    assert out["i"] == pytest.approx(0.742537, abs=5e-7)
    assert out["j"] == pytest.approx(0.247512, abs=5e-7)
    assert row.self_prob == pytest.approx(0.009950, abs=5e-7)
    assert row.self_prob + sum(row.out_probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_transition_row_uniform_weights_has_no_self_mass(demo):
    row = transition_probabilities(demo, demo.query_id("camera"))
    assert row.self_prob == pytest.approx(0.0, abs=1e-12)
    assert sum(row.out_probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_transition_rows_always_sum_to_one(worked_example):
    g = worked_example
    for label in g.query_labels:
        row = transition_probabilities(g, g.query_id(label))
        total = row.self_prob + sum(row.out_probs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert row.self_prob >= 0.0
        assert all(p >= 0.0 for p in row.out_probs.values())


# -- the pointwise functions as views of the engine's transitions ------------


def _reference_variance(graph, node):
    weights = [st.expected_click_rate for _, st in graph.neighbors(node)]
    if not weights:
        raise ValueError(f"node {graph.label(node)!r} has no incident edges")
    return float(np.var(weights))


def _reference_normalized_weight(graph, source, target):
    if source.kind is NodeKind.QUERY:
        stats = graph.edge_stats(source, target)
    else:
        stats = graph.edge_stats(target, source)
    total = sum(st.expected_click_rate for _, st in graph.neighbors(source))
    return stats.expected_click_rate / total


def _reference_transition_row(graph, node):
    nbrs = graph.neighbors(node)
    total = sum(st.expected_click_rate for _, st in nbrs)
    out = {
        nbr: float(np.exp(-_reference_variance(graph, nbr)))
        * (st.expected_click_rate / total)
        for nbr, st in nbrs
    }
    return out, max(0.0, 1.0 - sum(out.values()))


def _nodes_with_edges(graph):
    for kind, adjacency in (
        (NodeKind.QUERY, graph.query_adjacency),
        (NodeKind.AD, graph.ad_adjacency),
    ):
        for i in np.flatnonzero(np.diff(adjacency.indptr)).tolist():
            yield kind, adjacency, i


_VIEW_GRAPHS = [
    pytest.param(_worked_example, id="worked"),
    pytest.param(demo_graph, id="demo"),
    pytest.param(lambda: generate_synthetic(600, 600, 1800, seed=42), id="600-s42"),
]


@pytest.mark.parametrize("make_graph", _VIEW_GRAPHS)
def test_pointwise_views_equal_the_engine_transitions(make_graph):
    graph = make_graph()
    engine = dict(
        zip(
            (NodeKind.QUERY, NodeKind.AD),
            _transition_matrices(graph, graph.query_adjacency, graph.ad_adjacency),
        )
    )
    for kind, adjacency, i in _nodes_with_edges(graph):
        node = query_node(i) if kind is NodeKind.QUERY else ad_node(i)
        assert variance(graph, node) == _row_stats(adjacency)[1][i]
        row = transition_probabilities(graph, node)
        lo, hi = engine[kind].indptr[i], engine[kind].indptr[i + 1]
        assert [n.index for n in row.out_probs] == engine[kind].indices[lo:hi].tolist()
        assert list(row.out_probs.values()) == engine[kind].data[lo:hi].tolist()


@pytest.mark.parametrize("make_graph", _VIEW_GRAPHS)
def test_pointwise_views_match_the_neighbor_loops(make_graph):
    graph = make_graph()
    for kind, _, i in _nodes_with_edges(graph):
        node = query_node(i) if kind is NodeKind.QUERY else ad_node(i)
        want = _reference_variance(graph, node)
        assert variance(graph, node) == pytest.approx(want, abs=1e-12)
        assert spread(graph, node) == pytest.approx(math.exp(-want), abs=1e-12)
        out, self_prob = _reference_transition_row(graph, node)
        row = transition_probabilities(graph, node)
        assert list(row.out_probs) == list(out)
        for nbr, p in out.items():
            assert row.out_probs[nbr] == pytest.approx(p, abs=1e-12)
            assert normalized_weight(graph, node, nbr) == pytest.approx(
                _reference_normalized_weight(graph, node, nbr), abs=1e-12
            )
        assert row.self_prob == pytest.approx(self_prob, abs=1e-12)


def test_pointwise_functions_raise_only_for_the_node_asked_about():
    # q1's only edge weighs zero and "lonely" has no edge at all
    g = ClickGraph(
        ["q1", "q2", "lonely"], ["a", "b"],
        [0, 1, 1], [0, 0, 1], [100] * 3, [0, 50, 30], [0.0, 0.5, 0.3],
    )
    q1, q2, lonely = query_node(0), query_node(1), query_node(2)
    for fn in (
        lambda: transition_probabilities(g, q1),
        lambda: normalized_weight(g, q1, ad_node(0)),
    ):
        with pytest.raises(ValueError, match="'q1' has zero total incident weight"):
            fn()
    for fn in (variance, spread, transition_probabilities):
        with pytest.raises(ValueError, match="'lonely' has no incident edges"):
            fn(g, lonely)
    assert variance(g, q1) == 0.0 and spread(g, q1) == 1.0
    row = transition_probabilities(g, q2)
    assert row.self_prob + sum(row.out_probs.values()) == pytest.approx(1.0)
    assert normalized_weight(g, q2, ad_node(0)) == pytest.approx(0.5 / 0.8)
    assert normalized_weight(g, ad_node(0), q1) == 0.0
    assert set(transition_probabilities(g, ad_node(0)).out_probs) == {q1, q2}


def _other(node, q, a):
    return a if node.kind is NodeKind.QUERY else q


# (name, node kinds it takes, call on graph, node, a query and an ad)
_CSR_VIEWS = [
    ("degree", "qa", lambda g, n, q, a: g.degree(n)),
    ("variance", "qa", lambda g, n, q, a: variance(g, n)),
    ("spread", "qa", lambda g, n, q, a: spread(g, n)),
    ("transitions", "qa", lambda g, n, q, a: transition_probabilities(g, n)),
    ("weight-source", "qa", lambda g, n, q, a: normalized_weight(g, n, _other(n, q, a))),
    ("weight-target", "qa", lambda g, n, q, a: normalized_weight(g, _other(n, q, a), n)),
    ("desirability-q1", "q", lambda g, n, q, a: desirability(g, n, q)),
    ("desirability-q2", "q", lambda g, n, q, a: desirability(g, q, n)),
    ("common-q", "q", lambda g, n, q, a: common_ad_count(g, n, q)),
    ("common-q2", "q", lambda g, n, q, a: common_ad_count(g, q, n)),
]


@pytest.mark.parametrize(
    "view, make_node",
    [
        pytest.param(view, make_node, id=f"{name}-{tag}")
        for name, kinds, view in _CSR_VIEWS
        for tag, make_node in (("q", query_node), ("a", ad_node))
        if tag in kinds
    ],
)
@pytest.mark.parametrize("index", [-1, -5, 5, 99])
def test_csr_views_reject_indices_outside_the_graph(demo, view, make_node, index):
    # demo has 5 queries and 4 ads; a negative index must not wrap around
    # to another node's row
    with pytest.raises(ValueError):
        view(demo, make_node(index), demo.query_id("camera"), demo.ad_id("hp.com"))


def test_zero_weight_node_rejected():
    g = ClickGraph.from_records(
        [("q1", "a", 100, 0, 0.0), ("q2", "a", 100, 50, 0.5)]
    )
    with pytest.raises(ValueError, match="zero total incident weight.*'q1'"):
        weighted_simrank(g, exact_params())


def test_uniform_weights_reduce_to_evidence_scores(demo):
    # equal weights make every spread 1 and every normalized weight
    # 1/degree, so the weighted recursion collapses to the plain one
    weighted = weighted_simrank(demo, exact_params(8))
    evidenced = evidence_simrank(demo, exact_params(8))
    assert np.allclose(
        weighted.matrix.toarray(), evidenced.matrix.toarray(), atol=1e-10
    )
    assert weighted.method == Method.WEIGHTED.value


def test_uniform_weights_structural_iterate_equals_plain(demo):
    structural = weighted_simrank(demo, exact_params(8), apply_evidence_factor=False)
    plain = simrank(demo, exact_params(8))
    assert np.allclose(
        structural.matrix.toarray(), plain.matrix.toarray(), atol=1e-10
    )


def test_twin_components_plain_ties_weighted_splits(twin_graph):
    plain = simrank(twin_graph, exact_params())
    weighted = weighted_simrank(twin_graph, exact_params(), apply_evidence_factor=False)
    balanced_plain = sim_by_label(plain, "flower", "blossom")
    skewed_plain = sim_by_label(plain, "bouquet", "petals")
    assert balanced_plain == skewed_plain == pytest.approx(0.8, abs=1e-12)
    balanced = sim_by_label(weighted, "flower", "blossom")
    skewed = sim_by_label(weighted, "bouquet", "petals")
    assert balanced == pytest.approx(0.8, abs=1e-12)
    assert skewed < balanced


def test_equal_spreads_heavier_shared_weight_wins():
    # both shared ads are perfectly balanced (spread 1); the pair whose
    # clicks concentrate on the shared ad outranks the diluted pair
    g = ClickGraph.from_records(
        [
            ("q1", "shared1", 100, 80, 0.8), ("q1", "noise1", 100, 10, 0.1),
            ("q2", "shared1", 100, 80, 0.8), ("q2", "noise2", 100, 10, 0.1),
            ("r1", "shared2", 100, 20, 0.2), ("r1", "noise3", 100, 10, 0.1),
            ("r2", "shared2", 100, 20, 0.2), ("r2", "noise4", 100, 10, 0.1),
        ]
    )
    scores = weighted_simrank(g, exact_params(), apply_evidence_factor=False)
    heavy = sim_by_label(scores, "q1", "q2")
    light = sim_by_label(scores, "r1", "r2")
    assert heavy > light


def test_raising_a_low_shared_weight_toward_the_mean_helps():
    # moving q1's shared-ad weight up toward the other incident weight
    # raises its normalized share *and* the ad's spread, so the sharing
    # pair's score climbs; past the mean the spread penalty turns around
    # and the unconditional version of this claim is false
    def score(w):
        g = ClickGraph.from_records(
            [
                ("q1", "shared", 100, max(1, int(w * 100)), w),
                ("q1", "noise1", 100, 50, 0.5),
                ("q2", "shared", 100, 90, 0.9),
                ("q2", "noise2", 100, 50, 0.5),
            ]
        )
        return sim_by_label(
            weighted_simrank(g, exact_params(20), apply_evidence_factor=False),
            "q1", "q2",
        )

    values = [score(w) for w in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_weighted_scores_bounded_symmetric(twin_graph):
    scores = weighted_simrank(twin_graph, exact_params())
    dense = scores.matrix.toarray()
    assert np.array_equal(dense, dense.T)
    assert dense.min() >= 0.0
    assert dense.max() <= 1.0


# -- consistency checker ---------------------------------------------------


def test_plain_scores_violate_consistency_on_twins(twin_graph):
    plain = simrank(twin_graph, exact_params())
    report = check_consistency(twin_graph, plain, samples=200, seed=0)
    assert (report.triggered, report.violations) == (20, 20)
    # witness list is capped at ten entries to keep reports readable
    assert len(report.witnesses) == min(report.violations, 10)
    assert all(w.scores[0] <= w.scores[1] for w in report.witnesses)
    # the draws, pinned: the order each pair came out of the sampler
    assert [w.pair_one[0] for w in report.witnesses] == [
        "flower", "blossom", "blossom", "blossom", "blossom",
        "flower", "blossom", "flower", "flower", "blossom",
    ]
    assert {(w.ads, w.pair_two) for w in report.witnesses} == {
        (("orchids.com", "teleflora.com"), ("petals", "bouquet"))
    }


def test_weighted_scores_stay_consistent_on_twins(twin_graph):
    weighted = weighted_simrank(twin_graph, exact_params(), apply_evidence_factor=False)
    report = check_consistency(twin_graph, weighted, samples=200, seed=0)
    assert (report.triggered, report.violations) == (20, 0)


# triggered comparisons per seed; pins the checker's random draws
STAR_UNION_TRIGGERED = [
    65, 50, 36, 54, 66, 50, 54, 47, 46, 63, 50, 51, 48, 46, 44, 61, 37, 53, 52, 51,
]


@pytest.mark.parametrize("seed", range(20))
def test_weighted_scores_consistent_on_random_star_unions(seed):
    graph = star_union_graph(seed)
    weighted = weighted_simrank(graph, exact_params(), apply_evidence_factor=False)
    report = check_consistency(graph, weighted, samples=200, seed=seed)
    assert report.violations == 0
    assert report.triggered == STAR_UNION_TRIGGERED[seed]


def test_consistency_reports_pinned_on_a_seeded_graph():
    graph = generate_synthetic(600, 600, 1800, seed=42)
    params = SimRankParams(max_iterations=7, convergence_epsilon=0.0)
    shared = [
        (("a454", "a175"), ("q320", "q186"), ("q184", "q23")),
        (("a323", "a447"), ("q438", "q303"), ("q302", "q586")),
        (("a588", "a175"), ("q322", "q385"), ("q184", "q23")),
        (("a8", "a241"), ("q2", "q28"), ("q110", "q17")),
        (("a374", "a466"), ("q347", "q300"), ("q489", "q396")),
    ]
    expected = {
        simrank: (61, 30, [
            (("a48", "a425"), ("q0", "q1"), ("q339", "q306")),
            shared[0],
            shared[1],
            shared[2],
            shared[3],
            shared[4],
            (("a358", "a403"), ("q301", "q304"), ("q331", "q380")),
            (("a90", "a350"), ("q7", "q64"), ("q318", "q368")),
            (("a317", "a78"), ("q318", "q300"), ("q282", "q130")),
            (("a485", "a215"), ("q301", "q65"), ("q132", "q150")),
        ]),
        weighted_simrank: (61, 23, [
            (("a331", "a491"), ("q340", "q300"), ("q5", "q378")),
            shared[0],
            (("a449", "a310"), ("q300", "q527"), ("q302", "q301")),
            shared[1],
            shared[2],
            shared[3],
            shared[4],
            (("a90", "a350"), ("q7", "q64"), ("q318", "q368")),
            (("a317", "a78"), ("q318", "q300"), ("q282", "q130")),
            (("a62", "a148"), ("q18", "q64"), ("q1", "q126")),
        ]),
    }
    for score, (triggered, violations, witnesses) in expected.items():
        report = check_consistency(graph, score(graph, params), samples=300, seed=5)
        assert (report.triggered, report.violations) == (triggered, violations)
        assert [(w.ads, w.pair_one, w.pair_two) for w in report.witnesses] == witnesses


def test_uniform_graph_is_vacuously_consistent(demo):
    plain = simrank(demo, exact_params())
    report = check_consistency(demo, plain, samples=200, seed=0)
    # equal weights never satisfy the strict-weight premise
    assert report.triggered == 0
    assert report.violations == 0


def test_single_pair_graph_cannot_trigger():
    # both draws of every quadruple land on the same unordered pair; a
    # score can never strictly exceed itself, so such draws are skipped
    g = ClickGraph.from_records(
        [("q1", "a", 100, 75, 0.75), ("q2", "a", 100, 5, 0.05)]
    )
    scores = simrank(g, exact_params())
    report = check_consistency(g, scores, samples=100, seed=3)
    assert report.triggered == 0
    assert report.violations == 0


def test_checker_is_deterministic(twin_graph):
    plain = simrank(twin_graph, exact_params())
    a = check_consistency(twin_graph, plain, samples=150, seed=9)
    b = check_consistency(twin_graph, plain, samples=150, seed=9)
    assert (a.triggered, a.violations) == (b.triggered, b.violations)
    assert a.witnesses == b.witnesses
