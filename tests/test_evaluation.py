"""Desirability scoring, the edge-removal experiment, and judgment metrics."""

import random
from collections import Counter
from math import comb

import numpy as np
import pytest

from clicksim import evaluation
from clicksim.evaluation import (
    DesirabilityTriple,
    JudgmentSet,
    desirability,
    desirability_experiment,
    precision_recall,
    select_triples,
)
from clicksim.graph import (
    ClickGraph,
    NodeKind,
    generate_synthetic,
    query_node,
    remove_edges,
)
from clicksim.rewrite import RewriteList
from clicksim.simrank import SimRankParams, simrank
from clicksim.weighted import weighted_simrank
from conftest import leaf_gadget, make_triple, planted_skew_graph, skew_gadget


def exact_params():
    return SimRankParams(
        max_iterations=10, convergence_epsilon=0.0, min_score_threshold=1e-12
    )


# -- desirability ------------------------------------------------------------


def test_desirability_hand_values():
    g = ClickGraph.from_records(
        [
            ("q1", "x", 100, 50, 0.5),
            ("q2", "x", 100, 60, 0.6),
            ("q2", "y", 100, 20, 0.2),
            ("q3", "z", 100, 40, 0.4),
        ]
    )
    # only x is shared; q2 spreads its mass over two ads
    assert desirability(g, g.query_id("q1"), g.query_id("q2")) == pytest.approx(0.3)
    # the reverse direction divides by q1's single edge instead
    assert desirability(g, g.query_id("q2"), g.query_id("q1")) == pytest.approx(0.5)
    assert desirability(g, g.query_id("q1"), g.query_id("q3")) == 0.0


def test_desirability_on_planted_gadget():
    g = ClickGraph.from_records(skew_gadget("t", 0.5, 0.9, 0.1))
    q1, q2, q3 = (g.query_id(f"{q}_t") for q in ("q1", "q2", "q3"))
    assert desirability(g, q1, q2) == pytest.approx(0.45, abs=1e-12)
    assert desirability(g, q1, q3) == pytest.approx(0.05, abs=1e-12)


def test_desirability_requires_query_nodes(demo):
    with pytest.raises(ValueError, match="query nodes"):
        desirability(demo, demo.query_id("pc"), demo.ad_id("hp.com"))


def _reference_desirability(graph, q1, q2):
    # the neighbors() loop the CSR row slices replaced
    ads_q1 = {ad.index for ad, _ in graph.neighbors(q1)}
    total = 0.0
    count = 0
    for ad, stats in graph.neighbors(q2):
        count += 1
        if ad.index in ads_q1:
            total += stats.expected_click_rate
    if total == 0.0:
        return 0.0
    return total / count


@pytest.mark.parametrize("graph_seed", [42, 7])
def test_desirability_equals_the_neighbor_loop(graph_seed):
    graph = generate_synthetic(600, 600, 1800, seed=graph_seed)
    rng = random.Random(graph_seed)
    # random pairs mostly share nothing, so the 3000 pairs sharing the most
    # ads join them; from 8 shared ads on, numpy's own sum would round
    # differently from the loop's running sum
    co = graph.co_clicks
    top = np.argsort(-co.data, kind="stable")[:3000]
    pairs = [(rng.randrange(600), rng.randrange(600)) for _ in range(3000)]
    pairs += list(zip(co.row[top].tolist(), co.col[top].tolist()))
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            q1, q2 = query_node(a), query_node(b)
            assert desirability(graph, q1, q2) == _reference_desirability(graph, q1, q2)


# -- triple selection --------------------------------------------------------


def test_select_triples_deterministic():
    g = planted_skew_graph(0)
    a = select_triples(g, 4, seed=5)
    b = select_triples(g, 4, seed=5)
    assert a == b
    assert len(a) == 4


def test_select_triples_distinct_anchors():
    g = planted_skew_graph(0)
    triples = select_triples(g, 6, seed=1)
    anchors = [t.q1 for t in triples]
    assert len(set(anchors)) == len(anchors)


def test_select_triples_candidates_share_ads():
    g = planted_skew_graph(0)
    for t in select_triples(g, 6, seed=2):
        ads1 = {a.index for a, _ in g.neighbors(t.q1)}
        for q in (t.q2, t.q3):
            shared = ads1 & {a.index for a, _ in g.neighbors(q)}
            assert shared


def test_select_triples_preserve_connectivity():
    g = planted_skew_graph(0)
    for t in select_triples(g, 6, seed=3):
        pruned = remove_edges(g, set(t.removed_edges))
        # a converged positive score is a certificate of a surviving path
        scores = simrank(
            pruned,
            SimRankParams(
                max_iterations=30, convergence_epsilon=0.0, min_score_threshold=0.0
            ),
        )
        assert scores.similarity(t.q1, t.q2) > 0.0
        assert scores.similarity(t.q1, t.q3) > 0.0


def test_select_triples_reports_shortfall(twin_graph, demo):
    # twin stars give every query exactly one sharer, never two
    with pytest.raises(ValueError, match="only 0 valid triples"):
        select_triples(twin_graph, 1, seed=0)
    # the five-query demo fails differently: removal always strands the
    # anchor because each query's whole edge set is shared
    with pytest.raises(ValueError, match="only 0 valid triples"):
        select_triples(demo, 1, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        select_triples(twin_graph, 0, seed=0)



def _sharer_pool_size(graph, q1):
    sharers = {
        q.index for ad, _ in graph.neighbors(q1) for q, _ in graph.neighbors(ad)
    }
    return len(sharers - {q1.index})


def test_select_triples_tests_each_pair_once_per_anchor(monkeypatch):
    # this graph and seed draw two anchors whose every candidate pair
    # breaks connectivity; each is tested once, not once per draw
    graph = generate_synthetic(600, 600, 1800, seed=12)
    calls = Counter()
    real = evaluation._still_connected

    def counting(g, removed, source, targets):
        calls[source] += 1
        return real(g, removed, source, targets)

    monkeypatch.setattr(evaluation, "_still_connected", counting)
    triples = select_triples(graph, 4, seed=12)
    bounds = {q1: comb(_sharer_pool_size(graph, q1), 2) for q1 in calls}
    for q1, count in calls.items():
        assert count <= bounds[q1], (q1, count)
    hopeless = [q1 for q1 in calls if q1 not in {t.q1 for t in triples}]
    assert len(hopeless) == 2
    assert all(calls[q1] == bounds[q1] for q1 in hopeless)


def test_select_triples_pinned_on_seeded_graph():
    # the triples that testing every draw selects; skipping repeated
    # rejected pairs must leave the random stream and so the choice alone
    graph = generate_synthetic(600, 600, 1800, seed=12)
    got = [
        (t.q1.index, t.q2.index, t.q3.index,
         tuple(ad.index for _, ad in t.removed_edges))
        for t in select_triples(graph, 4, seed=12)
    ]
    assert got == [
        (0, 97, 40, (0, 212)),
        (38, 3, 9, (0, 1)),
        (323, 539, 516, (300, 301)),
        (302, 324, 499, (300, 305, 307, 317)),
    ]


def _reference_select_triples(graph, n, seed):
    # the neighbors()-based selection the CSR one replaced, minus its errors
    def still_connected(removed, source, targets):
        wanted = {(t.kind, t.index) for t in targets}
        seen = {(source.kind, source.index)}
        frontier = [source]
        while frontier and wanted - seen:
            node = frontier.pop()
            for nbr, _ in graph.neighbors(node):
                if nbr.kind is NodeKind.AD:
                    edge = (node.index, nbr.index)
                else:
                    edge = (nbr.index, node.index)
                if edge not in removed and (nbr.kind, nbr.index) not in seen:
                    seen.add((nbr.kind, nbr.index))
                    frontier.append(nbr)
        return not (wanted - seen)

    rng = random.Random(seed)
    order = list(range(graph.num_queries))
    rng.shuffle(order)
    triples = []
    for i1 in order:
        if len(triples) == n:
            break
        q1 = query_node(i1)
        sharers = {q.index for ad, _ in graph.neighbors(q1) for q, _ in graph.neighbors(ad)}
        pool = sorted(sharers - {i1})
        if len(pool) < 2:
            continue
        rejected = set()
        for _ in range(evaluation._REJECTION_CAP):
            i2, i3 = rng.sample(pool, 2)
            pair = (min(i2, i3), max(i2, i3))
            if pair in rejected:
                continue
            other = {a.index for q in (i2, i3) for a, _ in graph.neighbors(query_node(q))}
            removed = [(q1, ad) for ad, _ in graph.neighbors(q1) if ad.index in other]
            keys = {(q.index, a.index) for q, a in removed}
            if still_connected(keys, q1, [query_node(i2), query_node(i3)]):
                triples.append((i1, i2, i3, tuple(a.index for _, a in removed)))
                break
            rejected.add(pair)
    return triples


@pytest.mark.parametrize("graph_seed", [11, 13, 42])
def test_select_triples_equal_the_neighbor_walk(graph_seed):
    graph = generate_synthetic(600, 600, 1800, seed=graph_seed)
    for n, seed in ((4, graph_seed), (3, 99)):
        got = [
            (t.q1.index, t.q2.index, t.q3.index,
             tuple(ad.index for _, ad in t.removed_edges))
            for t in select_triples(graph, n, seed)
        ]
        assert got == _reference_select_triples(graph, n, seed)


# -- edge-removal experiment -------------------------------------------------


def test_experiment_plain_ties_on_skew_gadget():
    # uniform averaging forgets which sibling q1 preferred: after the
    # probe edges go, both candidate scores collapse to the same value
    g = ClickGraph.from_records(skew_gadget("t", 0.5, 0.9, 0.1))
    t = make_triple(g, "q1_t", "q2_t", "q3_t")
    pruned = remove_edges(g, set(t.removed_edges))
    plain = simrank(pruned, exact_params())
    assert plain.similarity(t.q1, t.q2) == plain.similarity(t.q1, t.q3)
    assert desirability_experiment(g, [t], "simple", exact_params()) == 0.0


def test_experiment_weighted_resolves_skew_gadget():
    g = ClickGraph.from_records(skew_gadget("t", 0.5, 0.9, 0.1))
    t = make_triple(g, "q1_t", "q2_t", "q3_t")
    pruned = remove_edges(g, set(t.removed_edges))
    scores = weighted_simrank(pruned, exact_params(), apply_evidence_factor=False)
    assert scores.similarity(t.q1, t.q2) > scores.similarity(t.q1, t.q3)
    assert desirability_experiment(g, [t], "weighted", exact_params()) == 1.0


def test_experiment_both_methods_handle_leaf_gadget():
    g = ClickGraph.from_records(leaf_gadget("u", 0.5, 0.4))
    t = make_triple(g, "q1_u", "q2_u", "q3_u")
    assert desirability_experiment(g, [t], "simple", exact_params()) == 1.0
    assert desirability_experiment(g, [t], "weighted", exact_params()) == 1.0


def test_experiment_threaded_matches_serial():
    g = ClickGraph.from_records(
        skew_gadget("a", 0.5, 0.9, 0.1) + leaf_gadget("b", 0.55, 0.3)
    )
    triples = [
        make_triple(g, "q1_a", "q2_a", "q3_a"),
        make_triple(g, "q1_b", "q2_b", "q3_b"),
    ]
    serial = desirability_experiment(g, triples, "weighted", exact_params())
    threaded = desirability_experiment(
        g, triples, "weighted", exact_params(), threads=4
    )
    assert serial == threaded == 1.0


def test_experiment_rejects_non_propagation_methods():
    g = ClickGraph.from_records(skew_gadget("t", 0.5, 0.9, 0.1))
    t = [make_triple(g, "q1_t", "q2_t", "q3_t")]
    with pytest.raises(ValueError):
        desirability_experiment(g, t, "pearson")
    with pytest.raises(ValueError):
        desirability_experiment(g, t, "common")
    with pytest.raises(ValueError, match="no triples"):
        desirability_experiment(g, [], "simple")


# -- editorial judgments -----------------------------------------------------


def test_judgment_set_load_and_lookup(tmp_path):
    path = tmp_path / "grades.tsv"
    path.write_text(
        "# query\trewrite\tgrade\n"
        "PC\tcamera\t2\n"
        "pc\tdigital  camera\t3\n"
        "flower\torchids\t4\n"
        "\n"
    )
    judgments = JudgmentSet.load(path)
    assert len(judgments) == 3
    assert judgments.grade("pc", "Camera") == 2
    assert judgments.grade("pc", "digital camera") == 3
    assert judgments.grade("pc", "nothing") is None
    assert judgments.relevant_rewrites("pc", positive_grades={1, 2}) == {"camera"}
    assert judgments.relevant_rewrites("pc", {2, 3}) == {"camera", "digital camera"}


def test_judgment_set_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("q\tr\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        JudgmentSet.load(path)
    path.write_text("q\tr\thigh\n")
    with pytest.raises(ValueError, match="not an integer"):
        JudgmentSet.load(path)
    path.write_text("q\tr\t5\n")
    with pytest.raises(ValueError, match="outside 1..4"):
        JudgmentSet.load(path)
    path.write_text("q\tr\t2\nq\tr\t3\n")
    with pytest.raises(ValueError, match="duplicate"):
        JudgmentSet.load(path)


def test_judgment_set_constructor_validates():
    with pytest.raises(ValueError, match="1 to 4"):
        JudgmentSet({("q", "r"): 0})


# -- precision / recall ------------------------------------------------------


@pytest.fixture
def graded_lists():
    lists = [
        RewriteList("q", (("r1", 0.9), ("r2", 0.8), ("r3", 0.7))),
        RewriteList("p", (("r4", 0.6),)),
        RewriteList("empty", ()),
    ]
    judgments = JudgmentSet(
        {("q", "r1"): 4, ("q", "r2"): 2, ("q", "r3"): 3, ("p", "r4"): 1}
    )
    return lists, judgments


def test_precision_recall_per_query(graded_lists):
    lists, judgments = graded_lists
    report = precision_recall(lists, judgments, positive_grades={3, 4})
    assert report.per_query_precision["q"] == pytest.approx(2 / 3)
    assert report.per_query_precision["p"] == 0.0
    # own-pool recall: q found everything it graded positive; p's pool
    # is empty so its recall is undefined, not zero
    assert report.per_query_recall["q"] == 1.0
    assert report.per_query_recall["p"] is None
    assert report.macro_precision == pytest.approx((2 / 3) / 2)
    assert report.macro_recall == 1.0
    assert report.skipped_queries == ("empty",)


def test_precision_at_depth_caps_denominator(graded_lists):
    lists, judgments = graded_lists
    report = precision_recall(lists, judgments, positive_grades={3, 4})
    # q flags: T,F,T; p flags: F — denominators stop at list length
    assert report.precision_at[1] == pytest.approx((1.0 + 0.0) / 2)
    assert report.precision_at[2] == pytest.approx((0.5 + 0.0) / 2)
    assert report.precision_at[3] == pytest.approx((2 / 3 + 0.0) / 2)
    assert report.precision_at[5] == pytest.approx((2 / 3 + 0.0) / 2)


def test_interpolated_curve(graded_lists):
    lists, judgments = graded_lists
    report = precision_recall(lists, judgments, positive_grades={3, 4})
    # only q has a positive pool; its running (recall, precision) points
    # are (0.5, 1.0), (0.5, 0.5), (1.0, 2/3)
    curve = report.interpolated_precision
    assert len(curve) == 11
    assert curve[:6] == tuple([1.0] * 6)
    for value in curve[6:]:
        assert value == pytest.approx(2 / 3)


def test_pooled_recall_divides_by_union_pool(graded_lists):
    lists, judgments = graded_lists
    pool = {"q": {"r1", "r3", "r9", "r10"}, "p": set()}
    report = precision_recall(
        lists, judgments, positive_grades={3, 4}, pooled_relevant=pool
    )
    assert report.per_query_recall["q"] == pytest.approx(0.5)
    assert report.per_query_recall["p"] is None
    assert report.macro_recall == pytest.approx(0.5)


def test_ungraded_rewrites_are_an_error(graded_lists):
    lists, judgments = graded_lists
    lists = lists + [RewriteList("q2", (("mystery", 0.5),))]
    with pytest.raises(ValueError, match="lack grades.*mystery"):
        precision_recall(lists, judgments, positive_grades={3, 4})


def test_positive_grades_validated(graded_lists):
    lists, judgments = graded_lists
    with pytest.raises(ValueError, match="1..4"):
        precision_recall(lists, judgments, positive_grades={4, 5})
    with pytest.raises(ValueError, match="no rewrite lists"):
        precision_recall([RewriteList("empty", ())], judgments, {3, 4})
