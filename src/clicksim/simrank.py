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
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy import sparse

from .graph import ClickGraph, NodeId, NodeKind

_BLOCK_ROWS = 1024
_READ_CHUNK_LINES = 4096
_WRITE_CHUNK_PAIRS = 8192


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

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Stored pairs as ``(i, j, score)`` with ``i < j``."""
        coo = sparse.triu(self.matrix, k=1).tocoo()
        order = np.lexsort((coo.col, coo.row))
        for e in order:
            yield int(coo.row[e]), int(coo.col[e]), float(coo.data[e])

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
        comment lines.
        """
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
            labels = self.query_labels
            by_rank = sorted(labels)
            rank = np.empty(len(labels), dtype=np.int64)
            rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(
                len(labels)
            )
            ra, rb = rank[coo.row], rank[coo.col]
            lo = np.minimum(ra, rb)
            hi = np.maximum(ra, rb)
            order = np.lexsort((hi, lo))
            lo, hi, data = lo[order], hi[order], coo.data[order]
            # Python ints and floats, a chunk at a time: formatting numpy
            # scalars and indexing with them is several times slower, and
            # converting the whole table at once costs its size in memory
            for start in range(0, lo.size, _WRITE_CHUNK_PAIRS):
                stop = start + _WRITE_CHUNK_PAIRS
                out.writelines(
                    f"{by_rank[l]}\t{by_rank[h]}\t{v:.6f}\n"
                    for l, h, v in zip(
                        lo[start:stop].tolist(),
                        hi[start:stop].tolist(),
                        data[start:stop].tolist(),
                    )
                )
        for i, j in self.degenerate_pairs:
            a, b = sorted((self.query_labels[i], self.query_labels[j]))
            out.write(f"# degenerate\t{a}\t{b}\n")

    @classmethod
    def read(cls, path: str | Path, graph: ClickGraph) -> "SimilarityScores":
        """Load a score dump produced by :meth:`write` against ``graph``.

        The file is read a chunk of lines at a time into numpy arrays.
        A line without 3 tab-separated fields, an unknown query label, a
        score that is not a number, a query paired with itself, a score
        that is not finite or lies outside the declared method's range,
        a pair listed twice (in either label order) and a ``# method=``
        line naming no known method are errors naming the first
        offending line in the file, rather than being merged into the
        table.
        """
        method = Method.SIMPLE.value
        parts = []
        fault = None
        with open(path, encoding="utf-8") as fh:
            first = 1
            while fault is None:
                lines = list(islice(fh, _READ_CHUNK_LINES))
                part, declared, fault = _parse_dump_chunk(lines, first, graph)
                parts.append(part)
                method = declared or method
                if len(lines) < _READ_CHUNK_LINES:
                    break
                first += len(lines)
        rows, cols, vals, linenos = map(np.concatenate, zip(*parts))
        del parts
        n = graph.num_queries
        keys = np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols)
        order = np.argsort(keys, kind="stable")
        repeated = np.zeros(keys.size, dtype=bool)
        repeated[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        del keys, order
        low, high = _SCORE_RANGES[method]
        faults = [fault] if fault is not None else []
        faults += [
            (int(linenos[np.argmax(bad)]), what)
            for bad, what in (
                (rows == cols, "query paired with itself"),
                (~np.isfinite(vals), "score is not finite"),
                (
                    (vals < low) | (vals > high),
                    f"score outside [{low:g}, {high:g}] for method={method}",
                ),
                (repeated, "pair listed twice"),
            )
            if bad.any()
        ]
        if faults:
            lineno, what = min(faults, key=lambda f: f[0])
            raise ValueError(f"{path}:{lineno}: {what}")
        del linenos, repeated
        matrix = sparse.csr_matrix(
            (
                np.concatenate((vals, vals)),
                (np.concatenate((rows, cols)), np.concatenate((cols, rows))),
            ),
            shape=(n, n),
        )
        return cls(
            query_labels=graph.query_labels,
            matrix=matrix,
            iterations_run=0,
            converged=True,
            method=method,
        )


def printed_score(score: float) -> float:
    """``score`` as a dump prints it (6 decimals) and reads it back."""
    return float(f"{score:.6f}")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_dump_chunk(
    lines: list[str], first: int, graph: ClickGraph
) -> tuple[tuple[np.ndarray, ...], str | None, tuple[int, str] | None]:
    """Parse dump lines numbered from ``first``.

    Returns ``(rows, cols, scores, line numbers)`` of the pairs read,
    the method the last ``# method=`` line declares (``None`` if there
    is none) and the chunk's first parse fault as ``(line number,
    message)``, or ``None``.  Pairs are read up to the first line that
    cannot be parsed into one; pairs after a fault can only be faulty at
    later lines, so they never change which fault the caller reports.
    The checks that need the whole table are left to the caller.
    """
    declared = None
    faults = []
    data = [
        i for i, line in enumerate(lines)
        if not (line.startswith("#") or line.isspace())
    ]
    if len(data) < len(lines):
        for i, line in enumerate(lines):
            if line.startswith("# method="):
                name = line.split("=", 1)[1].strip()
                if name not in _SCORE_RANGES:
                    faults.append((first + i, f"unknown method {name!r}"))
                    break
                declared = name
        lines = [lines[i] for i in data]
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n"  # the last line of a file may lack it

    # One flat list for the whole chunk: a list per line costs far more.
    # Each line holds one newline, at its end, so every line has 3 fields
    # exactly when there are 3 per line in all and every third field
    # carries a newline.
    count = len(lines)
    fields = "\t".join(lines).split("\t") if lines else []
    if len(fields) != 3 * count or "".join(fields[2::3]).count("\n") != count:
        count = next(k for k, line in enumerate(lines) if line.count("\t") != 2)
        faults.append((first + data[count], "expected 3 tab-separated fields"))
        fields = fields[: 3 * count]

    # the index type a CSR matrix of the table will use
    index_type = np.int32 if graph.num_queries < 2**31 else np.int64
    columns = []
    for column in (0, 1):
        index = np.fromiter(
            map(graph._q_index.get, fields[column::3], repeat(-1)),
            index_type,
            count=count,
        )
        # a label not in canonical form is looked up again, canonicalized
        for k in np.flatnonzero(index < 0).tolist():
            try:
                index[k] = graph.query_id(fields[3 * k + column]).index
            except ValueError as exc:
                faults.append((first + data[k], str(exc)))
                break
        columns.append(index)
    rows, cols = columns
    try:
        vals = np.fromiter(map(float, fields[2::3]), np.float64, count=count)
    except ValueError:
        count = next(k for k, text in enumerate(fields[2::3]) if not _is_number(text))
        faults.append((first + data[count], "score is not a number"))
        vals = np.fromiter(map(float, fields[2 : 3 * count : 3]), np.float64, count=count)

    linenos = first + np.asarray(data[:count], dtype=np.int64)
    part = (rows[:count], cols[:count], vals, linenos)
    return part, declared, min(faults, key=lambda f: f[0]) if faults else None


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
    assembled straight from them.
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


def _row_normalized(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    """Binary adjacency scaled so each nonempty row sums to one."""
    out = adjacency.copy()
    out.data = np.ones_like(out.data)
    degrees = np.diff(out.indptr)
    scale = np.repeat(
        np.divide(
            1.0,
            degrees,
            out=np.zeros(degrees.shape, dtype=np.float64),
            where=degrees > 0,
        ),
        degrees,
    )
    out.data = out.data * scale
    return out


def simrank(
    graph: ClickGraph, params: SimRankParams | None = None, *, threads: int = 1
) -> SimilarityScores:
    """Plain SimRank query similarities for ``graph``.

    Edge weights are ignored: each neighbor of a node contributes with
    the same averaging weight ``1 / degree``.
    """
    if params is None:
        params = SimRankParams()
    if graph.num_queries == 0 and graph.num_ads == 0:
        raise ValueError("cannot score an empty graph")
    trans_q = _row_normalized(graph.query_adjacency)
    trans_a = _row_normalized(graph.ad_adjacency)
    s_q, iterations, converged = _iterate(trans_q, trans_a, params, threads)
    return SimilarityScores(
        query_labels=graph.query_labels,
        matrix=s_q,
        iterations_run=iterations,
        converged=converged,
        method=Method.SIMPLE.value,
        min_score_threshold=params.min_score_threshold,
    )
