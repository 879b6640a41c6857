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
from .graph import ClickGraph, NodeId, NodeKind
from .simrank import Method, SimRankParams, SimilarityScores, _iterate


def variance(graph: ClickGraph, node: NodeId) -> float:
    """Population variance of the expected click rates incident to ``node``."""
    weights = [st.expected_click_rate for _, st in graph.neighbors(node)]
    if not weights:
        raise ValueError(f"node {graph.label(node)!r} has no incident edges")
    return float(np.var(weights))


def spread(graph: ClickGraph, node: NodeId) -> float:
    """``exp(-variance)``: 1.0 for perfectly uniform incident weights."""
    return float(np.exp(-variance(graph, node)))


def normalized_weight(graph: ClickGraph, source: NodeId, target: NodeId) -> float:
    """Weight of edge (source, target) relative to all of source's edges."""
    if source.kind is NodeKind.QUERY:
        stats = graph.edge_stats(source, target)
    else:
        stats = graph.edge_stats(target, source)
    total = sum(st.expected_click_rate for _, st in graph.neighbors(source))
    if total <= 0.0:
        raise ValueError(
            f"node {graph.label(source)!r} has zero total incident weight"
        )
    return stats.expected_click_rate / total


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
    nbrs = graph.neighbors(node)
    if not nbrs:
        raise ValueError(f"node {graph.label(node)!r} has no incident edges")
    total = sum(st.expected_click_rate for _, st in nbrs)
    if total <= 0.0:
        raise ValueError(
            f"node {graph.label(node)!r} has zero total incident weight"
        )
    out: dict[NodeId, float] = {}
    for nbr, st in nbrs:
        out[nbr] = spread(graph, nbr) * (st.expected_click_rate / total)
    self_prob = max(0.0, 1.0 - sum(out.values()))
    return TransitionRow(node=node, out_probs=out, self_prob=self_prob)


def _segment_variance(mat: sparse.csr_matrix) -> np.ndarray:
    """Population variance of each CSR row's data (0.0 for empty rows)."""
    if mat.nnz == 0:
        return np.zeros(mat.shape[0])
    counts = np.diff(mat.indptr)
    sums = np.add.reduceat(mat.data, mat.indptr[:-1][counts > 0], axis=0)
    means = np.zeros(mat.shape[0])
    means[counts > 0] = sums / counts[counts > 0]
    centered = mat.data - np.repeat(means, counts)
    sq = np.zeros(mat.shape[0])
    sq[counts > 0] = np.add.reduceat(
        centered * centered, mat.indptr[:-1][counts > 0], axis=0
    )
    out = np.zeros(mat.shape[0])
    out[counts > 0] = sq[counts > 0] / counts[counts > 0]
    return out


def _transition_matrices(
    graph: ClickGraph,
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Spread-damped, weight-normalized transition matrices for both sides."""
    w_q = graph.query_adjacency  # queries x ads, ecr weights
    w_a = graph.ad_adjacency  # ads x queries

    q_tot = np.asarray(w_q.sum(axis=1)).ravel()
    a_tot = np.asarray(w_a.sum(axis=1)).ravel()
    q_deg = np.diff(w_q.indptr)
    a_deg = np.diff(w_a.indptr)
    bad_q = [
        graph.query_labels[i]
        for i in np.flatnonzero((q_deg > 0) & (q_tot <= 0.0))
    ]
    bad_a = [
        graph.ad_labels[j] for j in np.flatnonzero((a_deg > 0) & (a_tot <= 0.0))
    ]
    if bad_q or bad_a:
        offenders = ", ".join(repr(x) for x in (bad_q + bad_a)[:10])
        raise ValueError(
            f"zero total incident weight on non-isolated nodes: {offenders}"
        )

    spread_q = np.exp(-_segment_variance(w_q))
    spread_a = np.exp(-_segment_variance(w_a))

    trans_q = w_q.copy()
    inv_q = np.divide(1.0, q_tot, out=np.zeros_like(q_tot), where=q_tot > 0)
    trans_q.data = trans_q.data * np.repeat(inv_q, q_deg) * spread_a[trans_q.indices]

    trans_a = w_a.copy()
    inv_a = np.divide(1.0, a_tot, out=np.zeros_like(a_tot), where=a_tot > 0)
    trans_a.data = trans_a.data * np.repeat(inv_a, a_deg) * spread_q[trans_a.indices]

    return trans_q, trans_a


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
    if params is None:
        params = SimRankParams()
    if graph.num_queries == 0 and graph.num_ads == 0:
        raise ValueError("cannot score an empty graph")
    trans_q, trans_a = _transition_matrices(graph)
    s_q, iterations, converged = _iterate(trans_q, trans_a, params, threads)
    if apply_evidence_factor:
        s_q = apply_evidence(s_q, graph, kind, params.min_score_threshold)
    return SimilarityScores(
        query_labels=graph.query_labels,
        matrix=s_q,
        iterations_run=iterations,
        converged=converged,
        method=Method.WEIGHTED.value,
        min_score_threshold=params.min_score_threshold,
    )


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
    eligible = [
        a for a in range(graph.num_ads)
        if graph.degree(NodeId(NodeKind.AD, a)) >= 2
    ]
    if not eligible:
        return ConsistencyReport(0, 0, 0, ())

    def draw() -> tuple[int, list[tuple[int, float]]]:
        a = rng.choice(eligible)
        nbrs = graph.neighbors(NodeId(NodeKind.AD, a))
        picked = rng.sample(range(len(nbrs)), 2)
        return a, [
            (nbrs[p][0].index, nbrs[p][1].expected_click_rate) for p in picked
        ]

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
