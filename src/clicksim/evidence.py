"""Evidence-scaled SimRank.

Plain SimRank can rank a pair of queries that shares many ads below a
pair that shares a single ad, because each extra shared neighbor also
adds cross terms that dilute the average.  The evidence factor counters
that: it grows with the number of common neighbors and multiplies the
structural score, so pairs with richer direct co-click support are
promoted.  The factor is computed once from the input graph and applied
to the final iterate; it does not participate in the iteration itself.
"""

import enum

import numpy as np
from scipy import sparse

from .graph import ClickGraph
from .simrank import Method, SimRankParams, SimilarityScores, _symmetric, simrank


class EvidenceKind(enum.Enum):
    """Shape of the common-neighbor evidence curve."""

    GEOMETRIC = "geometric"
    EXPONENTIAL = "exponential"


def _evidence_curve(counts, kind: EvidenceKind):
    """Evidence for float common-neighbor counts, elementwise."""
    if kind is EvidenceKind.GEOMETRIC:
        return 1.0 - np.exp2(-counts)
    if kind is EvidenceKind.EXPONENTIAL:
        return -np.expm1(-counts)
    raise ValueError(f"unknown evidence kind: {kind!r}")


def evidence_score(common_count: int, kind: EvidenceKind = EvidenceKind.GEOMETRIC) -> float:
    """Evidence for a pair with ``common_count`` shared neighbors.

    The geometric form sums ``2**-i`` for ``i = 1..n`` and equals
    ``1 - 2**-n``; the exponential form is ``1 - exp(-n)``.  Both are 0
    at ``n = 0``, strictly increasing, and approach 1.
    """
    if common_count < 0:
        raise ValueError("common neighbor count cannot be negative")
    return float(_evidence_curve(np.float64(common_count), kind))


def common_neighbor_counts(graph: ClickGraph) -> sparse.csr_matrix:
    """Query-query matrix of shared ad counts (diagonal omitted)."""
    pairs = graph.co_clicks
    # copies, since _symmetric reorders the rows and columns it is given
    return _symmetric([pairs.row.copy(), pairs.col.copy(), pairs.data], graph.num_queries)


def _evidence_matrix(graph: ClickGraph, kind: EvidenceKind) -> sparse.csr_matrix:
    out = common_neighbor_counts(graph)
    out.data = _evidence_curve(out.data, kind)
    return out


def apply_evidence(
    scores: sparse.csr_matrix,
    graph: ClickGraph,
    kind: EvidenceKind,
    threshold: float,
) -> sparse.csr_matrix:
    """Scale a score matrix by per-pair evidence and re-prune.

    Pairs with no common neighbor have zero evidence and therefore end
    up with score 0 no matter how similar the iteration found them.
    """
    scaled = scores.multiply(_evidence_matrix(graph, kind)).tocsr()
    scaled.data[scaled.data < threshold] = 0.0
    scaled.eliminate_zeros()
    return scaled


def evidence_simrank(
    graph: ClickGraph,
    params: SimRankParams | None = None,
    kind: EvidenceKind = EvidenceKind.GEOMETRIC,
    *,
    threads: int = 1,
) -> SimilarityScores:
    """SimRank scores multiplied by common-neighbor evidence.

    Runs the plain iteration, then scales the final query-side iterate by
    the evidence factor computed on the same graph.
    """
    scores = simrank(graph, params, threads=threads)
    scores.matrix = apply_evidence(
        scores.matrix, graph, kind, scores.min_score_threshold
    )
    scores.method = Method.EVIDENCE.value
    return scores
