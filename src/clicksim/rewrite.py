"""Query rewrite generation from similarity scores.

A rewrite list for a query is the handful of highest-scoring other
queries, after near-duplicates are folded together and, optionally,
rewrites that no advertiser bids on are dropped.  Scores of zero or
below never produce rewrites.
"""

import functools
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graph import NodeId, NodeKind, canonical_label
from .simrank import SimilarityScores, printed_score

_DEFAULT_CANDIDATE_CAP = 100
_DEFAULT_FINAL_CAP = 5
# Scores that print equal lie less than one printed step (1e-6) apart;
# two steps leave room for the rounding of the scores themselves.
_PRINTED_TIE_SPAN = 2e-6


def _stem_token(token: str) -> str:
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("es") and len(token) >= 5 and not token.endswith("ses"):
        return token[:-2]
    if (
        token.endswith("s")
        and len(token) >= 3
        and not token.endswith(("ss", "us", "is"))
    ):
        return token[:-1]
    if token.endswith("ing") and len(token) >= 6:
        return token[:-3]
    if token.endswith("ed") and len(token) >= 5:
        return token[:-2]
    return token


# the rewrite lists of one table fold the same labels again and again
@functools.lru_cache(maxsize=1 << 16)
def normalize_query(text: str) -> str:
    """Canonical form used to spot duplicate rewrites.

    Lowercases, collapses whitespace and strips common inflection
    suffixes (plural, "-ing", "-ed") from each token.  The stripper is a
    small deterministic rule chain applied to a fixed point, not a
    linguistic stemmer, so the output is stable under re-normalization
    but makes no claim to be a dictionary word.
    """
    tokens = []
    for token in canonical_label(text).split():
        while True:
            stemmed = _stem_token(token)
            if stemmed == token:
                break
            token = stemmed
        tokens.append(token)
    return " ".join(tokens)


@dataclass(frozen=True)
class BidTermList:
    """Set of advertiser-bid query labels, canonicalized for membership."""

    terms: frozenset[str]

    @classmethod
    def load(cls, path: str | Path) -> "BidTermList":
        """Read one term per line; blanks and ``#`` comments are skipped."""
        terms = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                terms.add(canonical_label(line))
        return cls(terms=frozenset(terms))

    def __contains__(self, label: str) -> bool:
        return canonical_label(label) in self.terms


@dataclass(frozen=True)
class RewriteList:
    """Ranked rewrites for one query."""

    query: str
    rewrites: tuple[tuple[str, float], ...]

    @property
    def depth(self) -> int:
        return len(self.rewrites)


def top_rewrites(
    scores: SimilarityScores,
    query: NodeId,
    candidate_cap: int = _DEFAULT_CANDIDATE_CAP,
    final_cap: int = _DEFAULT_FINAL_CAP,
    bids: BidTermList | None = None,
) -> RewriteList:
    """Build the rewrite list for ``query`` from a score table.

    Candidates are the queries whose score is positive as a dump prints
    it (see :func:`~clicksim.simrank.printed_score`), ranked by that
    printed score with ties broken by label, so a table ranks the same
    before and after a round trip through a dump.  The top
    ``candidate_cap`` go through duplicate folding (one survivor per
    normalized form, the best-ranked one; forms equal to the query's
    own are dropped) and optional bid filtering, then the list is cut to
    ``final_cap``.  Rewrites carry the table's own scores.
    """
    if query.kind is not NodeKind.QUERY:
        raise ValueError("rewrites are generated for query nodes")
    if candidate_cap < 1 or final_cap < 1:
        raise ValueError("caps must be positive")
    label = scores.query_labels[query.index]

    indices, values = scores.row(query.index)
    if values.size > candidate_cap:
        # past the cap-th best score only scores that print equal to it
        # can still make the cut, on their label
        cut = np.partition(values, values.size - candidate_cap)[
            values.size - candidate_cap
        ]
        near = values >= cut - _PRINTED_TIE_SPAN
        indices, values = indices[near], values[near]
    order = np.argsort(values)[::-1]
    ranked = _in_printed_order(
        [scores.query_labels[j] for j in indices[order].tolist()],
        values[order].tolist(),
    )

    own_form = normalize_query(label)
    seen: set[str] = set()
    kept: list[tuple[str, float]] = []
    for cand, score in islice(ranked, candidate_cap):
        form = normalize_query(cand)
        if form == own_form or form in seen:
            continue
        seen.add(form)
        if bids is not None and cand not in bids:
            continue
        kept.append((cand, score))
        if len(kept) == final_cap:
            break

    return RewriteList(query=label, rewrites=tuple(kept))


def _in_printed_order(
    labels: list[str], values: list[float]
) -> Iterator[tuple[str, float]]:
    """Yield ``(label, score)`` by printed score descending, then label.

    ``values`` is sorted descending.  The printed score never decreases
    with the score, so equal printed scores form runs; each run is
    sorted by label when it is reached, and no score past it is
    formatted.  The first score that prints as zero or below ends the
    sequence.
    """
    start = 0
    while start < len(values):
        key = printed_score(values[start])
        if key <= 0.0:
            return
        stop = start + 1
        while stop < len(values) and printed_score(values[stop]) == key:
            stop += 1
        yield from sorted(zip(labels[start:stop], values[start:stop]))
        start = stop


def coverage(lists: Iterable[RewriteList], query_sample: Iterable[str]) -> float:
    """Fraction of sampled queries that received at least one rewrite."""
    depth: Mapping[str, int] = {
        lst.query: lst.depth for lst in lists
    }
    sample = [canonical_label(q) for q in query_sample]
    if not sample:
        raise ValueError("empty query sample")
    covered = sum(1 for q in sample if depth.get(q, 0) >= 1)
    return covered / len(sample)


def depth_histogram(
    lists: Sequence[RewriteList], max_depth: int
) -> dict[int, float]:
    """Fraction of queries at each rewrite-list depth (zero bins omitted)."""
    if not lists:
        raise ValueError("no rewrite lists")
    if max_depth < 0:
        raise ValueError("max_depth cannot be negative")
    counts: dict[int, int] = {}
    for lst in lists:
        if lst.depth > max_depth:
            raise ValueError(
                f"list for {lst.query!r} is deeper ({lst.depth}) than "
                f"max_depth ({max_depth})"
            )
        counts[lst.depth] = counts.get(lst.depth, 0) + 1
    total = len(lists)
    return {d: counts[d] / total for d in sorted(counts)}


def write_rewrites(lists: Iterable[RewriteList], destination) -> None:
    """Write ``query<TAB>rank<TAB>rewrite<TAB>score`` lines (rank is 1-based)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            write_rewrites(lists, fh)
        return
    for lst in lists:
        for rank, (rewrite, score) in enumerate(lst.rewrites, start=1):
            destination.write(f"{lst.query}\t{rank}\t{rewrite}\t{score:.6f}\n")


def read_rewrites(path: str | Path) -> list[RewriteList]:
    """Parse a rewrite file back into per-query lists (file order kept)."""
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    order: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields")
            query, rank_s, rewrite, score_s = fields
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad rank or score") from None
            if query not in per_query:
                per_query[query] = []
                order.append(query)
            per_query[query].append((rank, rewrite, score))
    out = []
    for query in order:
        entries = sorted(per_query[query])
        ranks = [r for r, _, _ in entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError(f"non-contiguous ranks for query {query!r}")
        out.append(
            RewriteList(
                query=query, rewrites=tuple((rw, sc) for _, rw, sc in entries)
            )
        )
    return out
