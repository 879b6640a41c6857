"""Weight-aware SimRank.

Plain SimRank treats every incident edge alike, so it cannot tell a pair
of queries joined by strong, uniform click rates from a pair joined by
erratic ones.  This variant derives transition weights from the expected
click rates instead: a neighbor's contribution is its normalized weight
within the source node's edges, damped by ``exp(-variance)`` of the
neighbor's own incident weights (its "spread").  Stable neighbors pass
similarity along almost undamped; neighbors with wildly uneven weights
pass along less, and the remainder stays on the node itself.

The common-neighbor evidence factor is applied to the final iterate the
same way the evidence variant applies it.
"""

import random
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .evidence import EvidenceKind, apply_evidence
from .graph import ClickGraph, NodeId, NodeKind, ad_node
from .simrank import (
    Method,
    SimRankParams,
    SimilarityScores,
    _damped_shares,
    _engine_scores,
    _row_stats,
)

# The pointwise functions read one node's entry of the arrays that
# ``simrank._transition_matrices`` builds, and check that node only.


def _sides(
    graph: ClickGraph, node: NodeId
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Weights by ``node``'s side and by the other side, once ``node`` is
    known to lie in the graph and have edges."""
    if not graph.degree(node):
        raise ValueError(f"node {graph.label(node)!r} has no incident edges")
    if node.kind is NodeKind.QUERY:
        return graph.query_adjacency, graph.ad_adjacency
    return graph.ad_adjacency, graph.query_adjacency


def _totals(graph: ClickGraph, weights: sparse.csr_matrix, node: NodeId) -> np.ndarray:
    """Row totals of ``weights``, once ``node``'s is known to be positive."""
    totals, _ = _row_stats(weights)
    if totals[node.index] <= 0.0:
        raise ValueError(f"node {graph.label(node)!r} has zero total incident weight")
    return totals


def variance(graph: ClickGraph, node: NodeId) -> float:
    """Population variance of the expected click rates incident to ``node``."""
    weights, _ = _sides(graph, node)
    _, variances = _row_stats(weights)
    return float(variances[node.index])


def spread(graph: ClickGraph, node: NodeId) -> float:
    """``exp(-variance)``: 1.0 for perfectly uniform incident weights."""
    return float(np.exp(-variance(graph, node)))


def normalized_weight(graph: ClickGraph, source: NodeId, target: NodeId) -> float:
    """Weight of edge (source, target) relative to all of source's edges."""
    if source.kind is NodeKind.QUERY:
        stats = graph.edge_stats(source, target)
    else:
        stats = graph.edge_stats(target, source)
    weights, _ = _sides(graph, source)
    totals = _totals(graph, weights, source)
    return float(stats.expected_click_rate * (1.0 / totals[source.index]))


@dataclass
class TransitionRow:
    """Outgoing transition probabilities of one node, plus self mass."""

    node: NodeId
    out_probs: dict[NodeId, float]
    self_prob: float


def transition_probabilities(graph: ClickGraph, node: NodeId) -> TransitionRow:
    """Transition row of ``node``: spread-damped normalized weights.

    The probability of stepping to neighbor ``i`` is
    ``spread(i) * normalized_weight(node, i)``; whatever the damping
    removes stays on the node itself, so the row always sums to one.
    """
    weights, other = _sides(graph, node)
    totals = _totals(graph, weights, node)
    _, variances = _row_stats(other)
    trans = _damped_shares(weights, totals, np.exp(-variances))
    lo, hi = trans.indptr[node.index], trans.indptr[node.index + 1]
    kind = NodeKind.AD if node.kind is NodeKind.QUERY else NodeKind.QUERY
    out = {
        NodeId(kind, j): p
        for j, p in zip(trans.indices[lo:hi].tolist(), trans.data[lo:hi].tolist())
    }
    self_prob = max(0.0, 1.0 - sum(out.values()))
    return TransitionRow(node=node, out_probs=out, self_prob=self_prob)


def weighted_simrank(
    graph: ClickGraph,
    params: SimRankParams | None = None,
    kind: EvidenceKind = EvidenceKind.GEOMETRIC,
    *,
    apply_evidence_factor: bool = True,
    threads: int = 1,
) -> SimilarityScores:
    """SimRank iterated with click-rate transition weights.

    The recursion matches plain SimRank with the uniform ``1 / degree``
    averaging replaced by spread-damped normalized weights; the diagonal
    stays fixed at one.  The evidence factor multiplies the final
    query-side iterate unless ``apply_evidence_factor`` is false (the
    edge-removal evaluation disables it, because its protocol removes
    every common ad of the probed pairs and would zero both scores).
    """
    scores = _engine_scores(graph, params, threads, Method.WEIGHTED)
    if apply_evidence_factor:
        scores.matrix = apply_evidence(
            scores.matrix, graph, kind, scores.min_score_threshold
        )
    return scores


# -- consistency ---------------------------------------------------------


@dataclass
class ConsistencyWitness:
    """One sampled comparison that violated the expected ordering."""

    clause: int
    ads: tuple[str, str]
    pair_one: tuple[str, str]
    pair_two: tuple[str, str]
    variances: tuple[float, float]
    anchor_weights: tuple[float, float]
    scores: tuple[float, float]


@dataclass
class ConsistencyReport:
    """Outcome of sampled ordering checks against a score table."""

    samples: int
    triggered: int
    violations: int
    witnesses: tuple[ConsistencyWitness, ...]


def check_consistency(
    graph: ClickGraph,
    scores: SimilarityScores,
    samples: int = 200,
    seed: int = 0,
) -> ConsistencyReport:
    """Sample quadruples and test weight-order against score-order.

    Each sample draws two ads with at least two incident queries and one
    query pair under each ad.  With ``variance`` taken over the two
    sampled edge weights of each ad, the checked expectation is: if the
    first ad's variance is no larger than the second's and the first
    pair's anchor edge outweighs the second pair's, then the first pair
    must score strictly higher.  Equal-variance comparisons are only
    triggered by exactly equal variances, so they mostly arise on graphs
    with repeated weights.

    Draws that land on the same unordered query pair twice are skipped:
    a score cannot strictly exceed itself, so such quadruples would
    condemn every possible score table and say nothing about whether the
    score *ordering* respects the weights.

    Graphs with no ad of degree two or more yield a report with zero
    samples.
    """
    if samples < 0:
        raise ValueError("sample count cannot be negative")
    rng = random.Random(seed)
    eligible = np.flatnonzero(np.diff(graph.ad_adjacency.indptr) >= 2).tolist()
    if not eligible:
        return ConsistencyReport(0, 0, 0, ())

    def draw() -> tuple[int, list[tuple[int, float]]]:
        a = rng.choice(eligible)
        queries, weights = graph._adjacency_row(ad_node(a))
        picked = rng.sample(range(queries.size), 2)
        return a, [(int(queries[p]), float(weights[p])) for p in picked]

    triggered = 0
    violations = 0
    witnesses: list[ConsistencyWitness] = []
    for _ in range(samples):
        a1, pair1 = draw()
        a2, pair2 = draw()
        (i1, w_i1), (j1, w_j1) = pair1
        (i2, w_i2), (j2, w_j2) = pair2
        if {i1, j1} == {i2, j2}:
            continue
        var1 = float(np.var([w_i1, w_j1]))
        var2 = float(np.var([w_i2, w_j2]))
        if not (var1 <= var2 and w_i1 > w_i2):
            continue
        triggered += 1
        s1 = scores.similarity(NodeId(NodeKind.QUERY, i1), NodeId(NodeKind.QUERY, j1))
        s2 = scores.similarity(NodeId(NodeKind.QUERY, i2), NodeId(NodeKind.QUERY, j2))
        if not s1 > s2:
            violations += 1
            if len(witnesses) < 10:
                witnesses.append(
                    ConsistencyWitness(
                        clause=1 if var1 == var2 else 2,
                        ads=(graph.ad_labels[a1], graph.ad_labels[a2]),
                        pair_one=(graph.query_labels[i1], graph.query_labels[j1]),
                        pair_two=(graph.query_labels[i2], graph.query_labels[j2]),
                        variances=(var1, var2),
                        anchor_weights=(w_i1, w_i2),
                        scores=(s1, s2),
                    )
                )
    return ConsistencyReport(samples, triggered, violations, tuple(witnesses))
