"""Rewrite evaluation: desirability experiment and judgment metrics.

Two independent ways of judging rewrite quality live here.  The
edge-removal experiment needs no human input: it hides the direct
click evidence between a query and two candidates, then checks whether
a similarity method still ranks the candidates the way a graph-derived
desirability score does.  The precision/recall path consumes editorial
grades from a TSV file instead.
"""

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .graph import (
    ClickGraph,
    NodeId,
    NodeKind,
    ad_node,
    canonical_label,
    remove_edges,
)
from .rewrite import RewriteList
from .simrank import Method, SimRankParams, simrank
from .weighted import weighted_simrank

_REJECTION_CAP = 10_000


def desirability(graph: ClickGraph, q1: NodeId, q2: NodeId) -> float:
    """Preference of ``q1`` for ``q2``: shared-ad weight mass on q2's side.

    Sum of w(q2, i) over common ads i, divided by q2's degree.  Not
    symmetric in its arguments.  Zero exactly when no ads are shared.
    """
    for node in (q1, q2):
        if node.kind is not NodeKind.QUERY:
            raise ValueError("desirability is defined between query nodes")
    ads1, _ = graph._adjacency_row(q1)
    ads2, weights2 = graph._adjacency_row(q2)
    shared = weights2[np.isin(ads2, ads1, assume_unique=True)]
    # a running sum in q2's ad order, not numpy's pairwise one
    total = float(np.cumsum(shared)[-1]) if shared.size else 0.0
    if total == 0.0:
        return 0.0
    return total / ads2.size


@dataclass(frozen=True)
class DesirabilityTriple:
    """One experiment unit: a query and two candidates sharing ads with it.

    ``removed_edges`` holds every edge from q1 to an ad that q2 or q3
    also clicks on; dropping them erases all direct evidence while the
    graph invariant guarantees indirect paths survive.
    """

    q1: NodeId
    q2: NodeId
    q3: NodeId
    removed_edges: tuple[tuple[NodeId, NodeId], ...]


def _neighbors(adjacency: sparse.csr_matrix, nodes: np.ndarray) -> np.ndarray:
    """Column indices of the given rows, concatenated in row order."""
    starts = adjacency.indptr[nodes]
    lengths = adjacency.indptr[nodes + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return adjacency.indices[np.arange(shift.size) + shift]


def _still_connected(
    graph: ClickGraph,
    removed: Sequence[int],
    source: NodeId,
    targets: Sequence[NodeId],
) -> bool:
    """Whether every target query stays reachable from the query
    ``source`` once its edges to the ads ``removed`` are gone.

    Breadth-first over the CSR adjacency, one level at a time.  Only the
    first step can take a removed edge: any later step along one leads
    back to ``source``, which is already seen.
    """
    by_query, by_ad = graph.query_adjacency, graph.ad_adjacency
    seen_q = np.zeros(graph.num_queries, dtype=bool)
    seen_a = np.zeros(graph.num_ads, dtype=bool)
    seen_q[source.index] = True
    wanted = np.array([t.index for t in targets], dtype=np.int64)
    ads, _ = graph._adjacency_row(source)
    ads = np.array([ad for ad in ads.tolist() if ad not in removed], dtype=np.int64)
    while not seen_q[wanted].all():
        if not ads.size:
            return False
        seen_a[ads] = True
        queries = _neighbors(by_ad, ads)
        queries = np.unique(queries[~seen_q[queries]])
        seen_q[queries] = True
        ads = _neighbors(by_query, queries)
        ads = np.unique(ads[~seen_a[ads]])
    return True


def select_triples(
    graph: ClickGraph, n: int, seed: int
) -> list[DesirabilityTriple]:
    """Sample ``n`` valid triples, deterministically for a given seed.

    Each triple uses a distinct q1.  Candidates q2/q3 are drawn uniformly
    from the queries sharing at least one ad with q1 and redrawn (up to a
    fixed cap of draws per q1) until both stay reachable from q1 after
    removal; each unordered pair is tested at most once per q1.
    Raises if the graph cannot supply ``n`` triples, reporting how many
    it found.
    """
    if n < 1:
        raise ValueError("need at least one triple")
    rng = random.Random(seed)
    order = list(range(graph.num_queries))
    rng.shuffle(order)

    def ads_of(query: int) -> list[int]:
        return graph._adjacency_row(NodeId(NodeKind.QUERY, query))[0].tolist()

    triples: list[DesirabilityTriple] = []
    for q1_index in order:
        if len(triples) == n:
            break
        q1 = NodeId(NodeKind.QUERY, q1_index)
        ads1 = ads_of(q1_index)
        pool = np.unique(_neighbors(graph.ad_adjacency, np.array(ads1, dtype=np.int64)))
        pool = pool[pool != q1_index].tolist()
        if len(pool) < 2:
            continue
        # whether a pair survives removal does not depend on its order or
        # on the draw, so a rejected pair is skipped when drawn again; the
        # draw itself still happens, keeping the random stream unchanged
        rejected: set[tuple[int, int]] = set()
        for _ in range(_REJECTION_CAP):
            i2, i3 = rng.sample(pool, 2)
            pair = (min(i2, i3), max(i2, i3))
            if pair in rejected:
                continue
            q2 = NodeId(NodeKind.QUERY, i2)
            q3 = NodeId(NodeKind.QUERY, i3)
            # every edge from q1 to an ad q2 or q3 also clicks, in q1's ad order
            shared = set(ads_of(i2)).union(ads_of(i3))
            removed = [ad for ad in ads1 if ad in shared]
            if _still_connected(graph, removed, q1, [q2, q3]):
                triples.append(
                    DesirabilityTriple(
                        q1=q1,
                        q2=q2,
                        q3=q3,
                        removed_edges=tuple((q1, ad_node(ad)) for ad in removed),
                    )
                )
                break
            rejected.add(pair)
    if len(triples) < n:
        raise ValueError(
            f"graph yielded only {len(triples)} valid triples of the "
            f"requested {n}; every candidate pair for the remaining "
            "queries breaks connectivity after edge removal"
        )
    return triples


def desirability_experiment(
    graph: ClickGraph,
    triples: Sequence[DesirabilityTriple],
    method: Method | str,
    params: SimRankParams | None = None,
    *,
    threads: int = 1,
) -> float:
    """Fraction of triples whose post-removal similarity ordering matches
    the desirability ordering taken on the intact graph.

    Ties on either side count as failures.  Scoring uses the structural
    iterate of the chosen method: once the shared edges are gone the
    probed pairs have no common ads left, so a common-ad evidence factor
    would zero every score and the comparison would be vacuous.  Only
    graph-propagation methods are meaningful here; correlation and
    common-ad baselines are rejected for the same reason.
    """
    method = Method(method)
    if params is None:
        params = SimRankParams()
    if not triples:
        raise ValueError("no triples supplied")

    def run_one(triple: DesirabilityTriple) -> bool:
        pruned = remove_edges(graph, set(triple.removed_edges))
        if method is Method.WEIGHTED:
            scores = weighted_simrank(pruned, params, apply_evidence_factor=False)
        else:
            scores = simrank(pruned, params)
        des2 = desirability(graph, triple.q1, triple.q2)
        des3 = desirability(graph, triple.q1, triple.q3)
        sim2 = scores.similarity(triple.q1, triple.q2)
        sim3 = scores.similarity(triple.q1, triple.q3)
        return (des2 > des3 and sim2 > sim3) or (des3 > des2 and sim3 > sim2)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, triples))
    else:
        outcomes = [run_one(t) for t in triples]
    return sum(outcomes) / len(triples)


class JudgmentSet:
    """Editorial grades, one integer in 1..4 per (query, rewrite) pair."""

    def __init__(self, grades: dict[tuple[str, str], int]):
        for (query, rewrite), grade in grades.items():
            if grade not in (1, 2, 3, 4):
                raise ValueError(
                    f"grade for ({query!r}, {rewrite!r}) is {grade}; "
                    "grades run from 1 to 4"
                )
        self._grades = dict(grades)

    @classmethod
    def load(cls, path: str | Path) -> "JudgmentSet":
        """Read ``query<TAB>rewrite<TAB>grade`` lines; duplicates are errors."""
        grades: dict[tuple[str, str], int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 fields")
                query = canonical_label(fields[0])
                rewrite = canonical_label(fields[1])
                try:
                    grade = int(fields[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: grade is not an integer"
                    ) from None
                if grade not in (1, 2, 3, 4):
                    raise ValueError(
                        f"{path}:{lineno}: grade {grade} outside 1..4"
                    )
                key = (query, rewrite)
                if key in grades:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate grade for "
                        f"({query!r}, {rewrite!r})"
                    )
                grades[key] = grade
        return cls(grades)

    def __len__(self) -> int:
        return len(self._grades)

    def grade(self, query: str, rewrite: str) -> int | None:
        return self._grades.get(
            (canonical_label(query), canonical_label(rewrite))
        )

    def relevant_rewrites(
        self, query: str, positive_grades: Iterable[int]
    ) -> set[str]:
        positives = set(positive_grades)
        query = canonical_label(query)
        return {
            rewrite
            for (q, rewrite), grade in self._grades.items()
            if q == query and grade in positives
        }


@dataclass(frozen=True)
class PrecisionRecallReport:
    """Macro-averaged rewrite quality against editorial grades.

    ``per_query_recall`` is None for queries whose relevant pool is
    empty (the ratio is undefined there); such queries are left out of
    ``macro_recall`` and the interpolated curve.  Queries with no
    rewrites at all never enter the report; they show up in coverage
    instead.
    """

    per_query_precision: dict[str, float]
    per_query_recall: dict[str, float | None]
    macro_precision: float
    macro_recall: float | None
    precision_at: dict[int, float]
    interpolated_precision: tuple[float, ...] = field(default=())
    skipped_queries: tuple[str, ...] = field(default=())


def precision_recall(
    lists: Sequence[RewriteList],
    judgments: JudgmentSet,
    positive_grades: Iterable[int],
    pooled_relevant: dict[str, set[str]] | None = None,
) -> PrecisionRecallReport:
    """Score ranked rewrite lists against graded judgments.

    Precision for a query is the graded-positive fraction of its
    provided rewrites; recall divides by the pooled relevant set —
    ``pooled_relevant`` when comparing several methods, otherwise this
    method's own positive rewrites (so a lone method scores recall 1
    wherever it found anything relevant).  Also reports P@1..5 (with
    list-length-capped denominators) and the 11-point interpolated
    precision curve.  Every provided rewrite must be graded.
    """
    positives = set(positive_grades)
    if not positives <= {1, 2, 3, 4}:
        raise ValueError("positive grades must lie in 1..4")

    ungraded: list[tuple[str, str]] = []
    evaluated: list[tuple[str, list[bool]]] = []
    skipped: list[str] = []
    for lst in lists:
        if lst.depth == 0:
            skipped.append(lst.query)
            continue
        flags = []
        for rewrite, _ in lst.rewrites:
            grade = judgments.grade(lst.query, rewrite)
            if grade is None:
                ungraded.append((lst.query, rewrite))
            else:
                flags.append(grade in positives)
        evaluated.append((lst.query, flags))
    if ungraded:
        shown = ", ".join(f"({q!r}, {r!r})" for q, r in ungraded[:10])
        raise ValueError(
            f"{len(ungraded)} rewrite pair(s) lack grades: {shown}"
        )
    if not evaluated:
        raise ValueError("no rewrite lists with content to evaluate")

    per_precision: dict[str, float] = {}
    per_recall: dict[str, float | None] = {}
    at_depth: dict[int, list[float]] = {x: [] for x in range(1, 6)}
    curves: list[list[float]] = []
    for query, flags in evaluated:
        provided = len(flags)
        hits = sum(flags)
        per_precision[query] = hits / provided
        if pooled_relevant is not None:
            pool_size = len(pooled_relevant.get(query, set()))
        else:
            pool_size = hits
        per_recall[query] = hits / pool_size if pool_size else None
        for x in range(1, 6):
            cut = min(x, provided)
            at_depth[x].append(sum(flags[:cut]) / cut)
        if pool_size:
            running = 0
            points = []
            for rank, flag in enumerate(flags, start=1):
                running += flag
                points.append((running / pool_size, running / rank))
            curve = []
            for level in range(11):
                threshold = level / 10
                curve.append(
                    max(
                        (p for r, p in points if r >= threshold),
                        default=0.0,
                    )
                )
            curves.append(curve)

    recalls = [r for r in per_recall.values() if r is not None]
    interpolated = ()
    if curves:
        interpolated = tuple(
            sum(c[i] for c in curves) / len(curves) for i in range(11)
        )
    return PrecisionRecallReport(
        per_query_precision=per_precision,
        per_query_recall=per_recall,
        macro_precision=sum(per_precision.values()) / len(per_precision),
        macro_recall=sum(recalls) / len(recalls) if recalls else None,
        precision_at={
            x: sum(vals) / len(vals) for x, vals in at_depth.items()
        },
        interpolated_precision=interpolated,
        skipped_queries=tuple(skipped),
    )
