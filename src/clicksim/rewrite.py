"""Query rewrite generation from similarity scores.

A rewrite list for a query is the handful of highest-scoring other
queries, after near-duplicates are folded together and, optionally,
rewrites that no advertiser bids on are dropped.  Scores of zero or
below never produce rewrites.
"""

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .graph import NodeId, NodeKind, canonical_label
from .lines import micro_units
from .simrank import SimilarityScores, label_ranks, printed_score

_DEFAULT_CANDIDATE_CAP = 100
_DEFAULT_FINAL_CAP = 5
# Scores that print equal lie less than one printed step (1e-6) apart;
# two steps leave room for the rounding of the scores themselves.
_PRINTED_TIE_SPAN = 2e-6
# table entries ranked at once; bounds the memory ranking takes
_RANK_CHUNK_ENTRIES = 1 << 16


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


# each ranking of a table, and each table of one graph, folds the same labels
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

    The lists of every query are ranked at once, on the first call for a
    table, and kept on it until its ``matrix`` is replaced or a call
    asks for other caps or bids; the calls after that look them up.
    """
    if query.kind is not NodeKind.QUERY:
        raise ValueError("rewrites are generated for query nodes")
    if candidate_cap < 1 or final_cap < 1:
        raise ValueError("caps must be positive")
    setting = (candidate_cap, final_cap, bids)
    ranking = scores._ranking
    if (
        ranking is None
        or ranking.matrix is not scores.matrix
        or ranking.setting != setting
    ):
        ranking = scores._ranking = _rank_table(scores, *setting)
    i = query.index
    return RewriteList(
        query=scores.query_labels[i],
        rewrites=tuple(ranking.rewrites[ranking.starts[i] : ranking.starts[i + 1]]),
    )


class _Ranking(NamedTuple):
    """The rewrites of every query of one table: query ``i``'s are
    ``rewrites[starts[i]:starts[i + 1]]``."""

    matrix: sparse.csr_matrix
    setting: tuple
    starts: list[int]
    rewrites: list[tuple[str, float]]


def printed_scores(values: np.ndarray) -> np.ndarray:
    """:func:`~clicksim.simrank.printed_score` of each value, in bulk.

    Where :func:`~clicksim.lines.micro_units` proves its digits those of
    the printed text, the printed score is ``±units / 1e6``: both that
    division and ``float()`` of the text round the same real number
    correctly.  Other values go through ``printed_score`` one at a time.
    """
    values = values.astype(np.float64, copy=False)
    units, exact = micro_units(values)
    printed = units / 1e6
    np.negative(printed, out=printed, where=np.signbit(values))
    slow = np.flatnonzero(~exact)
    printed[slow] = [printed_score(v) for v in values[slow].tolist()]
    return printed


def _rank_table(
    scores: SimilarityScores,
    candidate_cap: int,
    final_cap: int,
    bids: BidTermList | None,
) -> _Ranking:
    """Every query's list, by the rule of :func:`top_rewrites` applied
    to the table a row chunk at a time."""
    labels = scores.query_labels
    matrix = scores.matrix
    n = len(labels)
    rank = label_ranks(labels)
    forms: dict[str, int] = {}
    form = np.fromiter(
        (forms.setdefault(normalize_query(label), len(forms)) for label in labels),
        np.int64,
        n,
    )
    # only a label whose form another label shares can be folded away
    shared = np.bincount(form)[form] > 1
    allowed = None
    if bids is not None:
        allowed = np.fromiter((label in bids for label in labels), bool, n)
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64), matrix.data[:0])]
    for lo, hi in _row_chunks(matrix.indptr, _RANK_CHUNK_ENTRIES):
        rows, cols, values = _ranked_candidates(matrix, lo, hi, candidate_cap, rank)
        keep = form[cols] != form[rows]
        folded = np.flatnonzero(keep & shared[cols])
        if folded.size:
            # keep the first entry of each (row, form); unique's indices
            # point at first occurrences
            _, first = np.unique(rows[folded] * n + form[cols[folded]], return_index=True)
            keep[folded] = False
            keep[folded[first]] = True
        if allowed is not None:
            keep &= allowed[cols]
        rows, cols, values = rows[keep], cols[keep], values[keep]
        keep = _positions(rows, lo, hi) < final_cap
        parts.append((rows[keep], cols[keep], values[keep]))
    rows, cols, values = map(np.concatenate, zip(*parts))
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=starts[1:])
    rewrites = list(zip(map(labels.__getitem__, cols.tolist()), values.tolist()))
    return _Ranking(matrix, (candidate_cap, final_cap, bids), starts.tolist(), rewrites)


def _row_chunks(indptr: np.ndarray, entries: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges holding about ``entries`` entries each, and
    at least one row."""
    n = indptr.size - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(indptr, indptr[lo] + entries, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi


def _positions(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Each entry's place within its row, for ``rows`` sorted ascending."""
    counts = np.bincount(rows - lo, minlength=hi - lo)
    firsts = np.cumsum(counts) - counts
    return np.arange(rows.size) - firsts[rows - lo]


def _ranked_candidates(matrix, lo, hi, candidate_cap, rank):
    """``(rows, cols, values)`` of the first ``candidate_cap`` candidates
    of rows ``lo`` to ``hi``, ordered by row, then printed score
    descending, then label rank."""
    a, b = matrix.indptr[lo], matrix.indptr[hi]
    values, cols = matrix.data[a:b], matrix.indices[a:b]
    lengths = np.diff(matrix.indptr[lo : hi + 1])
    rows = np.repeat(np.arange(lo, hi), lengths)
    long = np.flatnonzero(lengths > candidate_cap)
    if long.size:
        # past the cap-th best score only scores that print equal to it
        # can still make the cut, on their label
        floor = np.full(hi - lo, -np.inf)
        starts = matrix.indptr[lo:hi][long] - a
        floor[long] = (
            _kth_largest(values, starts, lengths[long], candidate_cap) - _PRINTED_TIE_SPAN
        )
        keep = values >= floor[rows - lo]
        rows, cols, values = rows[keep], cols[keep], values[keep]
    printed = printed_scores(values)
    keep = printed > 0.0
    rows, cols, values, printed = rows[keep], cols[keep], values[keep], printed[keep]
    order = _rank_order(rows - lo, printed, rank[cols])
    rows, cols, values = rows[order], cols[order], values[order]
    keep = _positions(rows, lo, hi) < candidate_cap
    return rows[keep], cols[keep], values[keep]


def _rank_order(rows: np.ndarray, printed: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The order sorting entries by row, printed score descending, then
    label rank; all three are non-negative, ``printed`` positive.

    One ``int64`` key sorts them when the printed scores' micro-units
    (exact below ``2**50``, see :func:`printed_scores`) fit beside the
    row and the rank; ``np.lexsort`` sorts them otherwise.
    """
    if rows.size and printed.max() < 2.0**50 / 1e6:
        micros = np.rint(printed * 1e6).astype(np.int64)
        span = int(micros.max()) + 1
        labels = int(rank.max()) + 1
        if (int(rows.max()) + 1) * span * labels < 2**63:
            return np.argsort((rows * span + (span - 1 - micros)) * labels + rank)
    return np.lexsort((rank, -printed, rows))


def _kth_largest(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, k: int
) -> np.ndarray:
    """The ``k``-th largest of each ``values[start:start + length]``, for
    lengths of at least ``k``.

    Segments of similar length are padded with ``-inf`` into a matrix
    of at most about ``_RANK_CHUNK_ENTRIES`` cells and partitioned row by
    row at once.
    """
    out = np.empty(lengths.size)
    order = np.argsort(lengths, kind="stable")
    by_length = lengths[order]
    i = 0
    while i < order.size:
        width = 2 * int(by_length[i])
        j = min(
            int(np.searchsorted(by_length, width, side="right")),
            i + max(1, _RANK_CHUNK_ENTRIES // width),
        )
        group = order[i:j]
        width = int(by_length[j - 1])
        padded = np.full((group.size, width), -np.inf)
        spans = lengths[group]
        offsets = np.cumsum(spans) - spans
        padded[np.arange(width) < spans[:, None]] = values[
            np.repeat(starts[group] - offsets, spans) + np.arange(spans.sum())
        ]
        out[group] = np.partition(padded, width - k, axis=1)[:, width - k]
        i = j
    return out


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
    """Parse a rewrite file back into per-query lists (file order kept).

    A query's lines must be contiguous, list each rewrite once and hold
    the ranks 1 to n in any order.  A line without 4 fields, a rank or
    score that is not a number, a query whose lines are split by another
    query's, a rewrite listed twice for one query and a missing or
    repeated rank are errors naming the file and the offending line.
    """
    out = []
    seen: set[str] = set()  # queries whose lines are done
    # the current query's (line number, rank, rewrite, score) and rewrites
    entries: list[tuple[int, int, str, float]] = []
    listed: set[str] = set()

    def close(query):
        entries.sort(key=lambda entry: entry[1])
        for expected, (lineno, rank, _, _) in enumerate(entries, start=1):
            if rank != expected:
                raise ValueError(
                    f"{path}:{lineno}: non-contiguous ranks for query {query!r}"
                )
        rewrites = tuple((rewrite, score) for _, _, rewrite, score in entries)
        out.append(RewriteList(query=query, rewrites=rewrites))
        seen.add(query)
        entries.clear()
        listed.clear()

    query = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields")
            label, rank_s, rewrite, score_s = fields
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad rank or score") from None
            if label != query:
                if query is not None:
                    close(query)
                if label in seen:
                    raise ValueError(
                        f"{path}:{lineno}: lines of query {label!r} are split "
                        "by other queries' lines"
                    )
                query = label
            if rewrite in listed:
                raise ValueError(
                    f"{path}:{lineno}: rewrite {rewrite!r} listed twice for "
                    f"query {label!r}"
                )
            listed.add(rewrite)
            entries.append((lineno, rank, rewrite, score))
    if query is not None:
        close(query)
    return out
