"""Iterative SimRank for bipartite click graphs.

Two mutually recursive fixpoint systems define the scores: query pairs
average the previous scores of their neighboring ad pairs (decayed by
``c1``) and ad pairs average the previous scores of their neighboring
query pairs (decayed by ``c2``).  Every node is fully similar to itself
and iteration starts from that identity.

Only query-side scores are returned, and after ``k`` rounds they depend
only on the ad scores of round ``k - 1``, which depend only on the query
scores of round ``k - 2``, and so on.  The engine therefore computes that
one alternating chain, each step from the previous step alone, and never
the other chain, whose results nothing reads.  Each step is the same
sequence of float operations as the matching round of a two-sided
iteration, so the scores are bit for bit those of refreshing both sides
every round.

The implementation is sparse end to end: a pair enters the frontier only
if it had a nonzero score in the previous step or shares at least one
neighbor, and scores that fall below ``min_score_threshold`` are dropped
between steps.
"""

import enum
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .graph import ClickGraph, NodeId, NodeKind, _pattern, check_query_labels_writable
from .lines import (
    LabelIndex,
    LabelTable,
    byte_chunks,
    format_lines,
    parse_floats,
    split_fields,
    text_lines,
)

_BLOCK_ROWS = 1024
_READ_CHUNK_BYTES = 1 << 20
_WRITE_CHUNK_PAIRS = 65536


class Method(enum.Enum):
    """Similarity variants understood by the scoring dispatcher."""

    SIMPLE = "simple"
    EVIDENCE = "evidence"
    WEIGHTED = "weighted"


# The range of each method's scores, by the name a dump's ``# method=``
# line gives; the dump reader rejects a score outside it.
_SCORE_RANGES = {
    Method.SIMPLE.value: (0.0, 1.0),
    Method.EVIDENCE.value: (0.0, 1.0),
    Method.WEIGHTED.value: (0.0, 1.0),
    "pearson": (-1.0, 1.0),
    "common": (0.0, np.inf),
}


@dataclass
class SimRankParams:
    """Knobs for the iterative engine.

    ``c1`` decays query-side scores and ``c2`` ad-side scores.  Iteration
    stops after ``max_iterations`` rounds or, on a round that refreshes
    the query side, as soon as the largest absolute change of the query
    scores since that side's previous iterate, two rounds back on the
    chain, drops below ``convergence_epsilon``.  Iterates grow from zero,
    so the two-round change bounds the one-round change, and a run with
    ``convergence_epsilon > 0`` can stop later than a test on one round
    would; with ``convergence_epsilon == 0`` every run does all
    ``max_iterations`` rounds.  Scores below ``min_score_threshold`` are
    discarded between rounds.

    ``method`` is kept for callers that set it; the engine does not read
    it, since each scoring function fixes its own method.
    """

    c1: float = 0.8
    c2: float = 0.8
    max_iterations: int = 10
    convergence_epsilon: float = 1e-4
    min_score_threshold: float = 1e-4
    method: Method = Method.SIMPLE

    def __post_init__(self):
        if not 0.0 < self.c1 <= 1.0 or not 0.0 < self.c2 <= 1.0:
            raise ValueError("decay factors c1 and c2 must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.convergence_epsilon < 0.0:
            raise ValueError("convergence_epsilon must be non-negative")
        if self.min_score_threshold < 0.0:
            raise ValueError("min_score_threshold must be non-negative")
        if not isinstance(self.method, Method):
            self.method = Method(self.method)


@dataclass
class SimilarityScores:
    """Sparse symmetric query-query score table.

    ``matrix`` stores off-diagonal scores only; every query scores 1.0
    against itself implicitly.  ``degenerate_pairs`` is used by score
    producers that need to flag pairs whose value is defined by
    convention rather than computed (correlation with zero variance).
    """

    query_labels: tuple[str, ...]
    matrix: sparse.csr_matrix
    iterations_run: int
    converged: bool
    method: str
    min_score_threshold: float = 0.0
    degenerate_pairs: tuple[tuple[int, int], ...] = field(default=())
    # the last table-wide rewrite ranking, kept by :mod:`clicksim.rewrite`
    _ranking: object = field(default=None, init=False, repr=False, compare=False)

    def _check_query(self, node: NodeId) -> int:
        if node.kind is not NodeKind.QUERY:
            raise ValueError("similarity is defined between query nodes only")
        if not 0 <= node.index < len(self.query_labels):
            raise ValueError(f"query index out of range: {node.index}")
        return node.index

    def similarity(self, a: NodeId, b: NodeId) -> float:
        """Score of a query pair; 1.0 on the diagonal, 0.0 when unstored."""
        i, j = self._check_query(a), self._check_query(b)
        if i == j:
            return 1.0
        return float(self.matrix[i, j])

    @property
    def pair_count(self) -> int:
        return self.matrix.nnz // 2

    def row(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and scores for one query, unsorted.

        Both are views into ``matrix``; callers must not write to them.
        """
        lo, hi = self.matrix.indptr[index], self.matrix.indptr[index + 1]
        return self.matrix.indices[lo:hi], self.matrix.data[lo:hi]

    # -- dump format -------------------------------------------------------

    def write(self, destination) -> None:
        """Write ``query_a<TAB>query_b<TAB>score`` lines.

        Pairs appear once with the lexicographically smaller label first
        and lines sorted, so equal score tables serialize identically.
        Scores are printed with 6 decimals, as :func:`printed_score`
        rounds them.  Methods other than plain SimRank announce
        themselves in a header comment; degenerate pairs are appended as
        comment lines.  A query label starting with ``#`` is refused
        before anything is written, since its lines would read back as
        comments.
        """
        check_query_labels_writable(self.query_labels)
        if isinstance(destination, (str, Path)):
            with open(destination, "w", encoding="utf-8") as fh:
                self.write(fh)
            return
        out: io.TextIOBase = destination
        if self.method != Method.SIMPLE.value:
            out.write(f"# method={self.method}\n")
        coo = sparse.triu(self.matrix, k=1).tocoo()
        if coo.nnz:
            # sort by integer label ranks, not the labels themselves:
            # same order, and it stays fast at tens of millions of pairs
            rank = label_ranks(self.query_labels)
            ra, rb = rank[coo.row], rank[coo.col]
            lo = np.minimum(ra, rb)
            hi = np.maximum(ra, rb)
            order = np.lexsort((hi, lo))
            lo, hi, data = lo[order], hi[order], coo.data[order]
            # the lines are built in bulk a chunk at a time, so the text
            # never takes more memory than one chunk of it
            table = LabelTable(sorted(self.query_labels))
            for start in range(0, lo.size, _WRITE_CHUNK_PAIRS):
                stop = start + _WRITE_CHUNK_PAIRS
                text = format_lines(
                    (table, lo[start:stop]), (table, hi[start:stop]), data[start:stop]
                )
                out.write(str(text, "utf-8"))
        for i, j in self.degenerate_pairs:
            a, b = sorted((self.query_labels[i], self.query_labels[j]))
            out.write(f"# degenerate\t{a}\t{b}\n")

    @classmethod
    def read(cls, path: str | Path, graph: ClickGraph) -> "SimilarityScores":
        """Load a score dump produced by :meth:`write` against ``graph``.

        The file is read a byte chunk at a time into numpy arrays.  A
        line without 3 tab-separated fields, an unknown query label, a
        score that is not a number, a query paired with itself, a score
        that is not finite or lies outside the declared method's range,
        a pair listed twice (in either label order) and a ``# method=``
        line naming no known method are errors naming the first
        offending line in the file, rather than being merged into the
        table.
        """
        *half, _, method, fault = _scan(path, graph, LabelIndex(graph.query_labels))
        matrix = None
        if fault is None and not any(
            bad.any() for bad, _ in _table_faults(*half, method)
        ):
            matrix = _symmetric(half, graph.num_queries)
        if matrix is None:
            # a fault somewhere: read again, line by line, to name it
            *half, method = _checked_pairs(path, graph)
            matrix = _symmetric(half, graph.num_queries)
        return cls(
            query_labels=graph.query_labels,
            matrix=matrix,
            iterations_run=0,
            converged=True,
            method=method,
        )


def label_ranks(labels) -> np.ndarray:
    """Each label's position in the sorted labels, as ``int64``."""
    rank = np.empty(len(labels), dtype=np.int64)
    rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return rank


def printed_score(score: float) -> float:
    """``score`` as a dump prints it (6 decimals) and reads it back."""
    return float(f"{score:.6f}")


def _is_dump_comment(line: str) -> bool:
    return line.startswith("#") or line.isspace()


def _declared_method(lines: list[str], first: int):
    """The method the last ``# method=`` line among ``lines`` declares
    (``None`` if there is none), and the fault of the first line naming
    no known method as ``(line number, message)``, or ``None``.  The
    lines are numbered from ``first``; the scan stops at a fault."""
    declared = None
    for i, line in enumerate(lines):
        if line.startswith("# method="):
            name = line.split("=", 1)[1].strip()
            if name not in _SCORE_RANGES:
                return declared, (first + i, f"unknown method {name!r}")
            declared = name
    return declared, None


def _index_type(graph: ClickGraph):
    """The index type a CSR matrix of the graph's score table uses."""
    return np.int32 if graph.num_queries < 2**31 else np.int64


def _query_index(graph: ClickGraph, text: str) -> int:
    """Index of the query ``text`` names, canonicalized if need be."""
    found = graph._q_index.get(text)
    return graph.query_id(text).index if found is None else found


def _parse_dump_lines(lines: list[str], first: int, graph: ClickGraph):
    """Parse dump lines numbered from ``first``, one at a time.

    This is the reader of every chunk the bulk reader cannot prove it
    reads the same way, and of the whole file when there is a fault to
    name.  Returns ``(rows, cols, scores, line numbers)`` of the pairs
    read, the method the last ``# method=`` line declares (``None`` if
    there is none) and the chunk's first parse fault as ``(line number,
    message)``, or ``None``.  Pairs are read up to the first line that
    cannot be parsed into one; pairs after a fault can only be faulty at
    later lines, so they never change which fault the caller reports.
    The checks that need the whole table are left to the caller.
    """
    declared, fault = _declared_method(lines, first)
    rows, cols, vals, numbers = [], [], [], []
    for lineno, line in enumerate(lines, start=first):
        if fault is not None and fault[0] < lineno:
            break
        if _is_dump_comment(line):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            fault = (lineno, "expected 3 tab-separated fields")
            break
        try:
            row, col = (_query_index(graph, text) for text in fields[:2])
        except ValueError as exc:
            fault = (lineno, str(exc))
            break
        try:
            vals.append(float(fields[2]))
        except ValueError:
            fault = (lineno, "score is not a number")
            break
        rows.append(row)
        cols.append(col)
        numbers.append(lineno)
    index_type = _index_type(graph)
    part = (
        np.array(rows, dtype=index_type),
        np.array(cols, dtype=index_type),
        np.array(vals, dtype=np.float64),
        np.array(numbers, dtype=np.int64),
    )
    return part, declared, fault


def _bulk_dump_chunk(chunk: bytes, graph: ClickGraph, labels: LabelIndex):
    """The pairs of a dump chunk read in bulk, as :func:`_parse_dump_lines`
    gives them but with no line numbers, or ``None`` where
    :mod:`~clicksim.lines` cannot prove the chunk reads as that reads
    it, or it holds a fault."""
    fields = split_fields(chunk, 3, _is_dump_comment)
    if fields is None:
        return None
    declared, fault = _declared_method(fields.skipped, 1)
    if fault is not None:
        return None
    columns = []
    for column in (0, 1):
        index = labels.find(fields, column)
        for k in np.flatnonzero(index < 0).tolist():
            try:
                index[k] = _query_index(graph, fields.text(k, column))
            except ValueError:
                return None
        columns.append(index.astype(_index_type(graph)))
    scores = parse_floats(fields, 2)
    if scores is None:
        return None
    return (*columns, scores, np.empty(0, dtype=np.int64)), declared, None


def _scan(path, graph: ClickGraph, labels: LabelIndex | None):
    """Read a dump a byte chunk at a time, each chunk in bulk where
    ``labels`` is given and the bulk reader takes it, else line by line.

    Returns the rows, columns, scores and line numbers of the pairs
    read, the declared method and the first parse fault, at which the
    reading stops.  Line numbers and faults are right only when every
    chunk is read line by line: a bulk reading stands only if it finds
    no fault at all.
    """
    method = Method.SIMPLE.value
    parts = [_parse_dump_lines([], 1, graph)[0]]  # typed, for an empty file
    fault = None
    first = 1
    for chunk in byte_chunks(path, _READ_CHUNK_BYTES):
        read = None if labels is None else _bulk_dump_chunk(chunk, graph, labels)
        if read is None:
            lines = text_lines(chunk)
            read = _parse_dump_lines(lines, first, graph)
            first += len(lines)
        part, declared, fault = read
        parts.append(part)
        method = declared or method
        if fault is not None:
            break
    rows, cols, vals, linenos = map(np.concatenate, zip(*parts))
    return rows, cols, vals, linenos, method, fault


def _table_faults(rows, cols, vals, method: str):
    """``(mask, message)`` of each check on the pairs of a whole table but
    the one for pairs listed twice."""
    low, high = _SCORE_RANGES[method]
    with np.errstate(invalid="ignore"):
        out_of_range = (vals < low) | (vals > high)
    return (
        (rows == cols, "query paired with itself"),
        (~np.isfinite(vals), "score is not finite"),
        (out_of_range, f"score outside [{low:g}, {high:g}] for method={method}"),
    )


def _checked_pairs(path, graph: ClickGraph):
    """``(rows, cols, scores, method)`` of a dump read line by line, or a
    :class:`ValueError` naming the first offending line in the file."""
    rows, cols, vals, linenos, method, fault = _scan(path, graph, None)
    n = graph.num_queries
    keys = np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols)
    order = np.argsort(keys, kind="stable")
    repeated = np.zeros(keys.size, dtype=bool)
    repeated[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    del keys, order
    faults = [fault] if fault is not None else []
    faults += [
        (int(linenos[np.argmax(bad)]), what)
        for bad, what in (
            *_table_faults(rows, cols, vals, method),
            (repeated, "pair listed twice"),
        )
        if bad.any()
    ]
    if faults:
        lineno, what = min(faults, key=lambda f: f[0])
        raise ValueError(f"{path}:{lineno}: {what}")
    return rows, cols, vals, method


def _symmetric(half: list, n: int) -> sparse.csr_matrix | None:
    """The symmetric ``n x n`` CSR matrix holding each score of the half
    table ``half = [rows, cols, scores]`` at both of its positions, or
    ``None`` if a pair is listed twice (in either order).

    ``half`` is emptied, so the rows and columns are freed once the
    upper triangle is built, before the two triangles are added and the
    scores gathered.  The structure is built on entry numbers, which are
    never zero, so adding the two triangles neither merges nor drops an
    entry and scores of zero stay stored.  Sorting the upper triangle
    into CSR order also merges any repeated pair, which the entry count
    then shows.
    """
    rows, cols, vals = half
    half.clear()
    swap = rows > cols
    rows[swap], cols[swap] = cols[swap], rows[swap]
    del swap
    entries = np.arange(1, rows.size + 1, dtype=np.int32 if rows.size < 2**31 else np.int64)
    upper = sparse.csr_matrix((entries, (rows, cols)), shape=(n, n))
    del entries, rows, cols
    if upper.nnz != vals.size:
        return None
    full = upper + upper.T.tocsr()
    del upper
    full.data -= 1
    full.data = vals[full.data]
    return full


# -- engine core ---------------------------------------------------------


def _blocked_product(
    left: sparse.csr_matrix,
    middle: sparse.csr_matrix,
    right: sparse.csr_matrix,
    threads: int,
    scale: float,
    prune_below: float,
) -> sparse.csr_matrix:
    """``scale * left @ middle @ right`` in fixed-size row blocks.

    CSR multiplication builds each output row from the corresponding
    input row alone, so computing row blocks independently and stacking
    them reproduces the one-shot result bit for bit; block boundaries
    are fixed by row count, never by ``threads``, which therefore cannot
    change the output.

    Blocking exists for memory, not speed: the unpruned product can dwarf
    what survives the score threshold, so each block is pruned at
    ``prune_below`` before the next one is formed.  Callers pass a margin
    of at most half the real threshold; entries that straddle it are
    lost from one triangle at most, and such entries average to below the
    real threshold anyway, so the final pruned result is unaffected.
    """
    rows = left.shape[0]
    spans = [
        (lo, min(lo + _BLOCK_ROWS, rows)) for lo in range(0, rows, _BLOCK_ROWS)
    ]

    def work(span):
        lo, hi = span
        part = ((left[lo:hi] @ middle) @ right).tocsr()
        if scale != 1.0:
            part.data *= scale
        if prune_below > 0.0 and part.nnz:
            part.data[part.data < prune_below] = 0.0
            part.eliminate_zeros()
        return part

    if threads <= 1 or len(spans) == 1:
        blocks = [work(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(work, spans))
    if len(blocks) == 1:
        return blocks[0]
    return sparse.vstack(blocks, format="csr")


def _cleanup(mat: sparse.csr_matrix, threshold: float) -> sparse.csr_matrix:
    """Symmetrize, drop the diagonal and prune scores below threshold.

    The two triangles are averaged block by block so the full doubled
    matrix never has to exist at once; halving and doubling are exact in
    binary floating point, so filtering the unscaled sums against twice
    the threshold keeps exactly the entries a global pass would keep.

    Products come out with unsorted rows.  Converting to the transpose
    and back sorts them in linear time (it is a counting sort, cheaper
    than sorting each row); with sorted rows each block sum is canonical,
    so the kept entries are already in CSR order and the result is
    assembled straight from them.  Without the second transpose the
    stored order changes: ``test_chain_matches_two_sided_iteration_on_demo``
    and ``test_chain_matches_two_sided_iteration_across_blocks`` in
    ``tests/test_simrank.py`` then fail on the indices, although the
    6-decimal golden outputs do not change.
    """
    shape = mat.shape
    transpose = mat.T.tocsr()
    mat = transpose.T.tocsr()
    data_kept, indices_kept, counts = [], [], []
    for lo in range(0, shape[0], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, shape[0])
        part = mat[lo:hi] + transpose[lo:hi]
        row = np.repeat(np.arange(hi - lo), np.diff(part.indptr))
        keep = (
            (row + lo != part.indices)
            & (part.data >= 2.0 * threshold)
            & (part.data > 0.0)
        )
        data_kept.append(part.data[keep] * 0.5)
        indices_kept.append(part.indices[keep])
        counts.append(np.bincount(row[keep], minlength=hi - lo))
    del mat, transpose
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return sparse.csr_matrix(
        (
            np.minimum(np.concatenate(data_kept), 1.0),
            np.concatenate(indices_kept),
            indptr,
        ),
        shape=shape,
    )


def _max_abs_diff(a: sparse.csr_matrix, b: sparse.csr_matrix) -> float:
    diff = (a - b).tocoo()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def _iterate(
    trans_q: sparse.csr_matrix,
    trans_a: sparse.csr_matrix,
    params: SimRankParams,
    threads: int,
) -> tuple[sparse.csr_matrix, int, bool]:
    """Run the alternating chain that ends at the query scores.

    ``trans_q`` maps queries to ads and ``trans_a`` ads to queries; rows
    hold the averaging weights each pair update applies to its neighbor
    pairs.  After ``k`` rounds the query scores read only the ad scores
    of round ``k - 1``, which read only the query scores of round
    ``k - 2``, and so on, so step ``r`` of ``k`` refreshes the query side
    when ``k - r`` is even and the ad side otherwise, each from the
    previous step alone.  Returns query scores, rounds run and whether
    the convergence test fired.
    """
    nq, na = trans_q.shape
    k = params.max_iterations
    query_step = (trans_q, trans_q.T.tocsr(), params.c1)
    ad_step = (trans_a, trans_a.T.tocsr(), params.c2)
    track = params.convergence_epsilon > 0.0
    margin = params.min_score_threshold * 0.5

    # ``current`` is the previous step's iterate (the other side's zero
    # start before step 1); ``older`` the same side's iterate two steps
    # back, which only the convergence test reads
    zero_q = sparse.csr_matrix((nq, nq))
    zero_a = sparse.csr_matrix((na, na))
    current, older = (zero_a, zero_q) if k % 2 else (zero_q, zero_a)
    iterations = 0
    converged = False
    for iterations in range(1, k + 1):
        on_query = (k - iterations) % 2 == 0
        trans, trans_t, decay = query_step if on_query else ad_step
        eye = sparse.identity(current.shape[0], format="csr")
        new = _cleanup(
            _blocked_product(trans, current + eye, trans_t, threads, decay, margin),
            params.min_score_threshold,
        )
        converged = (
            track
            and on_query
            and _max_abs_diff(new, older) < params.convergence_epsilon
        )
        if track:
            older = current
        current = new
        if converged:
            break

    return current, iterations, converged


def _row_stats(weights: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Total and population variance of each CSR row's data (0.0 for an
    empty row)."""
    counts = np.diff(weights.indptr)
    full = counts > 0
    starts = weights.indptr[:-1][full]
    totals, variances = np.zeros(counts.size), np.zeros(counts.size)
    totals[full] = np.add.reduceat(weights.data, starts)
    centered = weights.data - np.repeat(totals / np.maximum(counts, 1), counts)
    variances[full] = np.add.reduceat(centered * centered, starts) / counts[full]
    return totals, variances


def _damped_shares(
    weights: sparse.csr_matrix, totals: np.ndarray, spreads: np.ndarray
) -> sparse.csr_matrix:
    """``weights`` with each row divided by its total and each entry
    multiplied by the spread of its column's node."""
    inverse = np.divide(1.0, totals, out=np.zeros_like(totals), where=totals > 0)
    out = weights.copy()
    out.data = (
        weights.data * np.repeat(inverse, np.diff(weights.indptr))
    ) * spreads[weights.indices]
    return out


def _transition_matrices(
    graph: ClickGraph, w_q: sparse.csr_matrix, w_a: sparse.csr_matrix
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Transitions from queries to ads and from ads to queries.

    ``w_q`` holds the edge weights by query and ``w_a`` by ad.  An edge
    passes its share of its source node's total weight, damped by the
    spread ``exp(-variance)`` of its target node's weights.  With every
    weight 1, each spread is 1 and each share ``1 / degree``: plain
    SimRank.  A node with edges whose weights total zero is an error.
    """
    q_tot, q_var = _row_stats(w_q)
    a_tot, a_var = _row_stats(w_a)
    bad = [
        labels[i]
        for weights, totals, labels in (
            (w_q, q_tot, graph.query_labels),
            (w_a, a_tot, graph.ad_labels),
        )
        for i in np.flatnonzero((np.diff(weights.indptr) > 0) & (totals <= 0.0))
    ]
    if bad:
        offenders = ", ".join(repr(x) for x in bad[:10])
        raise ValueError(
            f"zero total incident weight on non-isolated nodes: {offenders}"
        )
    return (
        _damped_shares(w_q, q_tot, np.exp(-a_var)),
        _damped_shares(w_a, a_tot, np.exp(-q_var)),
    )


def _engine_scores(
    graph: ClickGraph, params: SimRankParams | None, threads: int, method: Method
) -> SimilarityScores:
    """Scores of the simple method, on the 0/1 pattern of the edges, or
    of the weighted one, on their click rates."""
    if params is None:
        params = SimRankParams()
    if graph.num_queries == 0 and graph.num_ads == 0:
        raise ValueError("cannot score an empty graph")
    weights = (graph.query_adjacency, graph.ad_adjacency)
    if method is Method.SIMPLE:
        weights = tuple(map(_pattern, weights))
    s_q, iterations, converged = _iterate(
        *_transition_matrices(graph, *weights), params, threads
    )
    return SimilarityScores(
        query_labels=graph.query_labels,
        matrix=s_q,
        iterations_run=iterations,
        converged=converged,
        method=method.value,
        min_score_threshold=params.min_score_threshold,
    )


def simrank(
    graph: ClickGraph, params: SimRankParams | None = None, *, threads: int = 1
) -> SimilarityScores:
    """Plain SimRank query similarities for ``graph``.

    Edge weights are ignored: each neighbor of a node contributes with
    the same averaging weight ``1 / degree``.
    """
    return _engine_scores(graph, params, threads, Method.SIMPLE)
