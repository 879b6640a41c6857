"""Non-iterative query similarity baselines.

``common_ad_count`` is the crudest signal: how many ads two queries
share.  ``pearson`` correlates the expected click rates two queries put
on their shared ads, with each query's mean taken over all of its edges,
so it sees weight agreement but only on directly co-clicked ads.  Both
are cheap and both are blind to longer-range structure, which is exactly
what the iterative scores add.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .evidence import common_neighbor_counts
from .graph import ClickGraph, NodeId, NodeKind, _pattern
from .simrank import SimilarityScores, _symmetric


def _check_query(graph: ClickGraph, node: NodeId) -> int:
    if node.kind is not NodeKind.QUERY:
        raise ValueError("baseline similarities are defined between queries")
    graph.label(node)
    return node.index


def common_ad_count(graph: ClickGraph, q: NodeId, q2: NodeId) -> int:
    """Number of ads clicked for both queries."""
    _check_query(graph, q)
    _check_query(graph, q2)
    ads, _ = graph._adjacency_row(q)
    ads2, _ = graph._adjacency_row(q2)
    return int(np.intersect1d(ads, ads2, assume_unique=True).size)


@dataclass
class PearsonContext:
    """Per-query mean edge weight, reusable across many pair lookups."""

    mean_weight: np.ndarray

    @classmethod
    def from_graph(cls, graph: ClickGraph) -> "PearsonContext":
        adj = graph.query_adjacency
        degrees = np.diff(adj.indptr)
        sums = np.asarray(adj.sum(axis=1)).ravel()
        means = np.divide(
            sums, degrees, out=np.zeros_like(sums), where=degrees > 0
        )
        return cls(mean_weight=means)


def _correlations(
    adjacency: sparse.csr_matrix,
    means: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r of the query pairs ``(rows[n], cols[n])``, and whether
    each pair is degenerate (a zero denominator).

    D holds each edge's deviation from its query's mean and B the 0/1
    pattern of ``adjacency``.  Over the ads two queries share,
    ``D @ D.T`` sums the cross terms and ``(D∘D) @ B.T`` the first
    query's squared deviations; read at ``(j, i)`` it gives the second
    query's.  scipy's CSR product sums each entry from 0.0 in the row's
    ascending ad order, as a loop over the shared ads would, whereas
    ``np.add.reduceat`` and ``.sum()`` sum pairwise and round
    differently.  The product drops entries that sum to zero, so values
    are looked up at the pairs rather than taken from its pattern.
    """
    deviation = adjacency.copy()
    deviation.data = adjacency.data - np.repeat(means, np.diff(adjacency.indptr))
    squares = deviation.copy()
    squares.data = deviation.data * deviation.data
    binary = _pattern(adjacency)
    num = _values_at(deviation @ deviation.T, rows, cols)
    spread = squares @ binary.T
    den_i = _values_at(spread, rows, cols)
    den_j = _values_at(spread, cols, rows)
    degenerate = (den_i <= 0.0) | (den_j <= 0.0)
    ok = ~degenerate
    r = np.zeros(rows.size)
    r[ok] = np.clip(num[ok] / np.sqrt(den_i[ok] * den_j[ok]), -1.0, 1.0)
    return r, degenerate


def _values_at(
    matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    matrix.sort_indices()  # lets the lookup binary-search each row
    return np.asarray(matrix[rows, cols]).ravel()


def pearson(
    graph: ClickGraph,
    q: NodeId,
    q2: NodeId,
    context: PearsonContext | None = None,
) -> float:
    """Correlation of the two queries' click rates on their shared ads.

    Deviations are taken from each query's mean over all of its edges,
    while sums run over the shared ads only.  Pairs with no shared ad
    score 0; pairs whose deviations vanish on the shared ads (zero
    variance) are degenerate and also score 0.
    """
    i = _check_query(graph, q)
    j = _check_query(graph, q2)
    if context is None:
        context = PearsonContext.from_graph(graph)
    both = [i, j]
    r, _ = _correlations(
        graph.query_adjacency[both], context.mean_weight[both],
        np.array([0]), np.array([1]),
    )
    return float(r[0])


def pearson_scores(graph: ClickGraph) -> SimilarityScores:
    """Pearson similarity for every query pair with at least one shared ad.

    Degenerate pairs (shared ads present but zero weight variance on
    them) are recorded on the returned table so score dumps can flag
    them.
    """
    pairs = graph.co_clicks
    means = PearsonContext.from_graph(graph).mean_weight
    r, degenerate = _correlations(graph.query_adjacency, means, pairs.row, pairs.col)
    keep = r != 0.0
    matrix = _symmetric([pairs.row[keep], pairs.col[keep], r[keep]], graph.num_queries)
    return SimilarityScores(
        query_labels=graph.query_labels,
        matrix=matrix,
        iterations_run=0,
        converged=True,
        method="pearson",
        degenerate_pairs=tuple(
            zip(pairs.row[degenerate].tolist(), pairs.col[degenerate].tolist())
        ),
    )


def common_ad_scores(graph: ClickGraph) -> SimilarityScores:
    """Shared-ad counts for every co-clicked query pair, as a score table."""
    return SimilarityScores(
        query_labels=graph.query_labels,
        matrix=common_neighbor_counts(graph),
        iterations_run=0,
        converged=True,
        method="common",
    )
