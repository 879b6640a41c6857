"""Weighted bipartite click graphs.

A click graph relates queries to the ads that were clicked after those
queries were issued.  Queries form one node partition and ads the other;
every edge carries an impression count, a click count and an expected
click rate (a position-corrected click-through estimate).  The expected
click rate is the edge weight used by every scoring routine in this
package.

Graphs are immutable once built.  Mutating operations such as
:func:`remove_edges` return a new instance, so graphs may be shared
freely between threads.
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .lines import (
    _LABEL_WIDTH,
    LabelTable,
    first_fault,
    format_lines,
    label_keys,
    parse_floats,
    parse_ints,
    repeated,
    scan,
)

_READ_CHUNK_BYTES = 1 << 20
_WRITE_CHUNK_EDGES = 65536


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed or fails validation."""


class NodeKind(enum.Enum):
    QUERY = "query"
    AD = "ad"


@dataclass(frozen=True)
class NodeId:
    """Typed handle for a graph node: a partition tag plus a dense index."""

    kind: NodeKind
    index: int


@dataclass(frozen=True)
class EdgeStats:
    """Per-edge counters.

    ``expected_click_rate`` is an externally supplied estimate in
    ``[0, 1]``; it is deliberately not required to equal
    ``clicks / impressions``.
    """

    impressions: int
    clicks: int
    expected_click_rate: float


def query_node(index: int) -> NodeId:
    return NodeId(NodeKind.QUERY, index)


def ad_node(index: int) -> NodeId:
    return NodeId(NodeKind.AD, index)


def canonical_label(text: str) -> str:
    """Lowercase a query label and collapse runs of whitespace."""
    return " ".join(text.lower().split())


class ClickGraph:
    """Immutable weighted bipartite graph of queries and ads.

    Parameters
    ----------
    query_labels, ad_labels:
        Node labels; position in the sequence is the node's dense index.
    q_idx, a_idx:
        Edge endpoint indices (parallel arrays, one entry per edge).
    impressions, clicks, ecr:
        Edge statistics, parallel to ``q_idx`` / ``a_idx``.
    """

    def __init__(
        self,
        query_labels: Iterable[str],
        ad_labels: Iterable[str],
        q_idx: np.ndarray,
        a_idx: np.ndarray,
        impressions: np.ndarray,
        clicks: np.ndarray,
        ecr: np.ndarray,
    ):
        self._query_labels = tuple(query_labels)
        self._ad_labels = tuple(ad_labels)

        q_idx = np.asarray(q_idx, dtype=np.int64)
        a_idx = np.asarray(a_idx, dtype=np.int64)
        order = np.lexsort((a_idx, q_idx))
        self._eq = q_idx[order]
        self._ea = a_idx[order]
        self._imp = np.asarray(impressions, dtype=np.int64)[order]
        self._clk = np.asarray(clicks, dtype=np.int64)[order]
        self._ecr = np.asarray(ecr, dtype=np.float64)[order]

        nq, na = len(self._query_labels), len(self._ad_labels)
        if self._eq.size and (self._eq.min() < 0 or self._eq.max() >= nq):
            raise ValueError("edge query index out of range")
        if self._ea.size and (self._ea.min() < 0 or self._ea.max() >= na):
            raise ValueError("edge ad index out of range")

        self._q_index = {lab: i for i, lab in enumerate(self._query_labels)}
        self._a_index = {lab: i for i, lab in enumerate(self._ad_labels)}
        if len(self._q_index) != nq:
            raise ValueError("duplicate query label")
        if len(self._a_index) != na:
            raise ValueError("duplicate ad label")

    # -- construction ------------------------------------------------

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, str, int, int, float]]
    ) -> "ClickGraph":
        """Build a graph from ``(query, ad, impressions, clicks, ecr)`` rows.

        Query labels are canonicalized (lowercased, whitespace collapsed);
        ad identifiers are kept verbatim apart from surrounding whitespace.
        An empty label, a negative count, clicks above impressions, a rate
        outside ``[0, 1]`` or a duplicate (query, ad) pair raises
        :class:`GraphFormatError` naming the first such row as ``record N``.
        """
        rows = list(records)
        return _edges_graph(*_columns(rows), range(1, len(rows) + 1), "record")

    # -- basic shape ---------------------------------------------------

    @property
    def num_queries(self) -> int:
        return len(self._query_labels)

    @property
    def num_ads(self) -> int:
        return len(self._ad_labels)

    @property
    def num_edges(self) -> int:
        return int(self._eq.size)

    @property
    def query_labels(self) -> tuple[str, ...]:
        return self._query_labels

    @property
    def ad_labels(self) -> tuple[str, ...]:
        return self._ad_labels

    def queries(self) -> Iterator[NodeId]:
        for i in range(self.num_queries):
            yield query_node(i)

    # -- label lookup ----------------------------------------------------

    def query_id(self, label: str) -> NodeId:
        try:
            return query_node(self._q_index[canonical_label(label)])
        except KeyError:
            raise ValueError(f"unknown query label: {label!r}") from None

    def ad_id(self, label: str) -> NodeId:
        try:
            return ad_node(self._a_index[label.strip()])
        except KeyError:
            raise ValueError(f"unknown ad label: {label!r}") from None

    def label(self, node: NodeId) -> str:
        labels = (
            self._query_labels if node.kind is NodeKind.QUERY else self._ad_labels
        )
        if not 0 <= node.index < len(labels):
            raise ValueError(f"node index out of range: {node}")
        return labels[node.index]

    # -- edges ----------------------------------------------------------

    def degree(self, node: NodeId) -> int:
        return int(self._adjacency_row(node)[0].size)

    def neighbors(self, node: NodeId) -> list[tuple[NodeId, EdgeStats]]:
        """Neighbors of ``node`` with edge statistics, ascending by index."""
        nbrs, _ = self._adjacency_row(node)
        if node.kind is NodeKind.QUERY:
            return [(ad_node(j), self.edge_stats(node, ad_node(j))) for j in nbrs.tolist()]
        return [(query_node(i), self.edge_stats(query_node(i), node)) for i in nbrs.tolist()]

    def _adjacency_row(self, node: NodeId) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices, ascending, and edge weights of ``node``: views
        of its adjacency row, which callers must not write to.  The node
        is checked as :meth:`label` checks it."""
        self.label(node)
        rows = self.query_adjacency if node.kind is NodeKind.QUERY else self.ad_adjacency
        lo, hi = rows.indptr[node.index], rows.indptr[node.index + 1]
        return rows.indices[lo:hi], rows.data[lo:hi]

    def has_edge(self, query: NodeId, ad: NodeId) -> bool:
        self._check_pair(query, ad)
        return self._find_edge(query.index, ad.index) >= 0

    def edge_stats(self, query: NodeId, ad: NodeId) -> EdgeStats:
        self._check_pair(query, ad)
        e = self._find_edge(query.index, ad.index)
        if e < 0:
            raise ValueError(
                f"no edge between {self.label(query)!r} and {self.label(ad)!r}"
            )
        return EdgeStats(int(self._imp[e]), int(self._clk[e]), float(self._ecr[e]))

    def _find_edge(self, qi: int, ai: int) -> int:
        """Id of edge ``(qi, ai)``, its entry in :attr:`query_adjacency`, or -1."""
        rows = self.query_adjacency
        lo, hi = rows.indptr[qi], rows.indptr[qi + 1]
        pos = lo + np.searchsorted(rows.indices[lo:hi], ai)
        if pos < hi and rows.indices[pos] == ai:
            return int(pos)
        return -1

    def _check_pair(self, query: NodeId, ad: NodeId) -> None:
        if query.kind is not NodeKind.QUERY or ad.kind is not NodeKind.AD:
            raise ValueError("expected (query node, ad node) pair")
        self.label(query)
        self.label(ad)

    def edges(self) -> Iterator[tuple[NodeId, NodeId, EdgeStats]]:
        """All edges in canonical (query index, ad index) order."""
        for e in range(self.num_edges):
            yield (
                query_node(int(self._eq[e])),
                ad_node(int(self._ea[e])),
                EdgeStats(int(self._imp[e]), int(self._clk[e]), float(self._ecr[e])),
            )

    # -- matrix views (read-only, cached) ---------------------------------

    @cached_property
    def query_adjacency(self) -> sparse.csr_matrix:
        """queries x ads CSR matrix holding expected click rates."""
        counts = np.bincount(self._eq, minlength=self.num_queries)
        indptr = np.concatenate(([0], np.cumsum(counts)))  # edges sort by (q, a)
        return sparse.csr_matrix(
            (self._ecr.copy(), self._ea.astype(np.int32), indptr.astype(np.int64)),
            shape=(self.num_queries, self.num_ads),
        )

    @cached_property
    def ad_adjacency(self) -> sparse.csr_matrix:
        """ads x queries CSR matrix holding expected click rates."""
        return self.query_adjacency.T.tocsr()

    @cached_property
    def co_clicks(self) -> sparse.coo_matrix:
        """Shared-ad counts of every co-clicked query pair ``i < j``.

        The upper triangle of ``B @ B.T``, where B is the 0/1 pattern of
        :attr:`query_adjacency`, as a float COO matrix in the product's
        own entry order.  Common-ad scores, Pearson scores and their
        degenerate pairs, and the evidence factor all follow this order.
        """
        binary = _pattern(self.query_adjacency)
        counts = (binary @ binary.T).tocoo()
        keep = counts.row < counts.col
        return sparse.coo_matrix(
            (counts.data[keep], (counts.row[keep], counts.col[keep])),
            shape=counts.shape,
        )

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ClickGraph(queries={self.num_queries}, ads={self.num_ads}, "
            f"edges={self.num_edges})"
        )


def _pattern(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    """The 0/1 pattern of ``adjacency``: a copy with every stored weight
    set to 1.0, zero weights included, since each one is an edge."""
    out = adjacency.copy()
    out.data = np.ones_like(out.data)
    return out


# -- file formats -----------------------------------------------------------


def load_graph(path: str | Path) -> ClickGraph:
    """Read a tab-separated click graph.

    Each data line is ``query<TAB>ad<TAB>impressions<TAB>clicks<TAB>ecr``.
    Blank lines and lines starting with ``#`` are ignored.  Labels are
    canonicalized as :meth:`ClickGraph.from_records` does, and nodes are
    indexed in order of first appearance.  A line without 5 fields, a
    number Python cannot parse, and the faults ``from_records`` rejects
    raise :class:`GraphFormatError` naming the first offending line.

    The file is read once, a byte chunk at a time, and parsed in bulk by
    :mod:`~clicksim.lines`, which numbers the lines to name a fault.
    """
    columns, numbers, fault = scan(path, _READ_CHUNK_BYTES, 5, _is_graph_comment, _edge_chunk)
    return _edges_graph(*columns, numbers, "line", fault)


def _edge_chunk(fields):
    """``(query keys, ad keys, impressions, clicks, ecr)`` of a chunk's
    edges and its first parse fault as ``(line number, message)``, or
    ``None``: a line without 5 tab-separated fields, or a number that
    ``int()`` or ``float()`` rejects.  A label is a zero-padded ``bytes``
    key, or its ``str`` where that is over 64 bytes or holds a NUL."""
    fault = None
    if fields.misfit is not None:
        number, count = fields.misfit
        fault = (number, f"expected 5 tab-separated fields, got {count}")
    longest = int((fields.ends[:, :2] - fields.starts[:, :2]).max(initial=1))
    width = -(-min(longest, _LABEL_WIDTH) // 8) * 8
    labels = []
    for column in (0, 1):
        keys, irregular = label_keys(fields, column, width)
        keys = keys.view(f"S{width}").ravel()
        if irregular.any():
            keys = keys.astype(object)
            for k in np.flatnonzero(irregular).tolist():
                keys[k] = fields.text(k, column)
        labels.append(keys)
    (imp, bad_imp), (clk, bad_clk), (ecr, bad_ecr) = (
        parse_ints(fields, 2), parse_ints(fields, 3), parse_floats(fields, 4)
    )
    checks = [(bad_imp | bad_clk | bad_ecr, lambda _: "non-numeric impressions/clicks/ecr")]
    return (*labels, imp, clk, ecr), first_fault(fields.numbers, checks, fault)


def _columns(rows: list) -> list[np.ndarray]:
    """The edge columns of ``(query, ad, impressions, clicks, ecr)`` rows,
    labels as ``object`` arrays of the raw ``str``."""
    columns = zip(*rows, strict=True) if rows else ((),) * 5
    types = (object, object, np.int64, np.int64, np.float64)
    return [np.array(column, dtype=t) for column, t in zip(columns, types, strict=True)]


def _is_graph_comment(line: str) -> bool:
    return not line.strip() or line.lstrip().startswith("#")


def _edges_graph(queries, ads, imp, clk, ecr, numbers, noun, fault=None) -> ClickGraph:
    """The graph of the edge columns, labels raw (``str`` or UTF-8 ``bytes``).

    Labels are canonicalized once per distinct raw label.  Each row is
    checked for an empty label, a negative count, clicks above
    impressions, a rate outside ``[0, 1]`` and an edge listed before, in
    that order.  The earlier of the first flagged row and the parse
    ``fault`` raises :class:`GraphFormatError` naming it as ``{noun}
    {number}``, where ``numbers[row]`` numbers a row.
    """
    q_labels, q_idx = _first_seen(queries, canonical_label)
    a_labels, a_idx = _first_seen(ads, str.strip)
    checks = (
        ((q_idx < 0) | (a_idx < 0), lambda _: "empty query or ad label"),
        ((imp < 0) | (clk < 0), lambda _: "negative impression or click count"),
        (clk > imp, lambda k: f"clicks ({clk[k]}) exceed impressions ({imp[k]})"),
        (
            ~((ecr >= 0.0) & (ecr <= 1.0)),
            lambda k: f"expected click rate {float(ecr[k])!r} not in [0, 1]",
        ),
        (
            repeated(q_idx * len(a_labels) + a_idx),
            lambda k: f"duplicate edge ({q_labels[q_idx[k]]!r}, {a_labels[a_idx[k]]!r})",
        ),
    )
    fault = first_fault(numbers, checks, fault)
    if fault is not None:
        raise GraphFormatError(f"{noun} {fault[0]}: {fault[1]}")
    return ClickGraph(q_labels, a_labels, q_idx, a_idx, imp, clk, ecr)


def _first_seen(keys: np.ndarray, clean) -> tuple[list[str], np.ndarray]:
    """The distinct non-empty labels ``clean`` makes of the raw ``keys``,
    in order of first appearance, and each key's label index, -1 where
    its label is empty.  ``clean`` runs once per distinct raw key."""
    raw: dict = {}
    codes = [raw.setdefault(key, len(raw)) for key in keys.tolist()]
    seen: dict[str, int] = {}
    index = np.empty(len(raw), dtype=np.int64)
    for k, key in enumerate(raw):
        label = clean(key.decode("utf-8") if isinstance(key, bytes) else key)
        index[k] = seen.setdefault(label, len(seen)) if label else -1
    return list(seen), index[np.array(codes, dtype=np.int64)]


def check_query_labels_writable(labels: Iterable[str]) -> None:
    """Refuse query labels that a file would read back as comments.

    Graph files and score dumps put a query label first on each line,
    and their readers skip lines starting with ``#``.  Raises
    :class:`ValueError` naming the first such label.
    """
    for label in labels:
        if label.startswith("#"):
            raise ValueError(
                f"query label {label!r} starts with '#', so its lines "
                "would read back as comments"
            )


def save_graph(graph: ClickGraph, destination) -> None:
    """Write ``graph`` in the format accepted by :func:`load_graph`.

    Edges are emitted in canonical (query index, ad index) order with the
    expected click rate fixed to six decimal places, so saving the same
    graph twice produces byte-identical files.  ``destination`` may be a
    path or an open text handle.  A query label starting with ``#`` is
    refused before anything is written.
    """
    check_query_labels_writable(graph.query_labels)
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as fh:
            save_graph(graph, fh)
        return
    queries, ads = LabelTable(graph.query_labels), LabelTable(graph.ad_labels)
    for start in range(0, graph.num_edges, _WRITE_CHUNK_EDGES):
        edges = slice(start, start + _WRITE_CHUNK_EDGES)
        text = format_lines(
            (queries, graph._eq[edges]),
            (ads, graph._ea[edges]),
            graph._imp[edges],
            graph._clk[edges],
            graph._ecr[edges],
        )
        destination.write(str(text, "utf-8"))


# -- constructors ------------------------------------------------------------


def complete_bipartite(
    num_ads: int, num_queries: int, weight: float = 1.0
) -> ClickGraph:
    """Complete bipartite graph with every ad connected to every query.

    The first argument sizes the ad partition and the second the query
    partition, so ``complete_bipartite(1, 2)`` is one ad shared by two
    queries.  Every edge carries the same expected click rate ``weight``.
    """
    if num_ads < 1 or num_queries < 1:
        raise ValueError("both partitions need at least one node")
    if not 0.0 < weight <= 1.0:
        raise ValueError("weight must be in (0, 1]")
    q_idx = np.repeat(np.arange(num_queries), num_ads)
    a_idx = np.tile(np.arange(num_ads), num_queries)
    n = num_ads * num_queries
    return ClickGraph(
        [f"q{i}" for i in range(num_queries)],
        [f"a{j}" for j in range(num_ads)],
        q_idx,
        a_idx,
        np.ones(n, dtype=np.int64),
        np.ones(n, dtype=np.int64),
        np.full(n, weight),
    )


def demo_graph() -> ClickGraph:
    """Small two-component demo graph used throughout the test suite.

    One component relates computer and electronics queries to a computer
    vendor and an electronics retailer; the other relates a flower query
    to two florists.  Edge statistics are uniform so that structural and
    weighted scores coincide on it.
    """
    rows = [
        ("pc", "hp.com"),
        ("camera", "hp.com"),
        ("camera", "bestbuy.com"),
        ("digital camera", "hp.com"),
        ("digital camera", "bestbuy.com"),
        ("tv", "bestbuy.com"),
        ("flower", "teleflora.com"),
        ("flower", "orchids.com"),
    ]
    return ClickGraph.from_records((q, a, 10, 1, 0.1) for q, a in rows)


_TOPIC_QUERIES = 256


def _powerlaw_probs(count: int, gamma: float) -> np.ndarray:
    probs = np.arange(1, count + 1, dtype=np.float64) ** -gamma
    return probs / probs.sum()


def _sample_block(
    rng: np.random.Generator,
    q_span: tuple[int, int],
    a_span: tuple[int, int],
    quota: int,
    gamma: float,
    num_ads: int,
    chosen: set[int],
) -> None:
    """Rejection-sample ``quota`` distinct edges inside one block."""
    q_lo, q_hi = q_span
    a_lo, a_hi = a_span
    pq = _powerlaw_probs(q_hi - q_lo, gamma)
    pa = _powerlaw_probs(a_hi - a_lo, gamma)
    target = len(chosen) + quota
    for _ in range(1000):
        need = target - len(chosen)
        if need <= 0:
            return
        batch = max(32, int(need * 1.6))
        qs = q_lo + rng.choice(q_hi - q_lo, size=batch, p=pq)
        As = a_lo + rng.choice(a_hi - a_lo, size=batch, p=pa)
        for key in qs.astype(np.int64) * num_ads + As:
            if len(chosen) >= target:
                break
            chosen.add(int(key))
    raise ValueError("edge sampling failed to converge; graph too dense")


def generate_synthetic(
    num_queries: int,
    num_ads: int,
    num_edges: int,
    powerlaw_exponent: float = 2.2,
    seed: int = 0,
) -> ClickGraph:
    """Random click graph whose degree sequences have power-law tails.

    Click traffic concentrates in narrow commercial topics, so large
    sparse samples are built as topic blocks: node attractiveness within
    a block follows ``rank ** (-1 / (exponent - 1))``, most blocks are
    chained together through a thin stream of cross-topic edges into one
    dominant component, and a minority of topics stay detached as
    satellite components.  Duplicate edges are rejected and resampled,
    clicks are binomial in the impressions, and the expected click rate
    is the click fraction (with a half-click floor so weights stay
    positive).  The same seed always yields the same graph.  Small or
    dense requests collapse to a single block.
    """
    if num_queries < 1 or num_ads < 1:
        raise ValueError("need at least one query and one ad")
    if num_edges < 0:
        raise ValueError("negative edge count")
    cells = num_queries * num_ads
    if num_edges > cells:
        raise ValueError(
            f"cannot place {num_edges} distinct edges in a "
            f"{num_queries} x {num_ads} graph"
        )
    if powerlaw_exponent <= 1.0:
        raise ValueError("powerlaw_exponent must exceed 1")

    rng = np.random.default_rng(seed)
    gamma = 1.0 / (powerlaw_exponent - 1.0)

    if num_edges == cells:
        q_idx = np.repeat(np.arange(num_queries, dtype=np.int64), num_ads)
        a_idx = np.tile(np.arange(num_ads, dtype=np.int64), num_queries)
        keys = q_idx * num_ads + a_idx
    elif num_edges > 0.3 * cells:
        if cells > 20_000_000:
            raise ValueError("graph too dense to sample at this size")
        keys = np.sort(rng.choice(cells, size=num_edges, replace=False))
    else:
        # block count: ~one topic per _TOPIC_QUERIES queries, but never
        # so many that per-block density breaks rejection sampling, and
        # never more blocks than ads
        density = num_edges / cells
        nblocks = max(
            1,
            min(
                round(num_queries / _TOPIC_QUERIES),
                num_ads,
                int(0.25 / density) if density > 0 else num_ads,
            ),
        )
        q_bounds = np.linspace(0, num_queries, nblocks + 1, dtype=int)
        a_bounds = np.linspace(0, num_ads, nblocks + 1, dtype=int)
        spans = [
            ((int(q_bounds[b]), int(q_bounds[b + 1])),
             (int(a_bounds[b]), int(a_bounds[b + 1])))
            for b in range(nblocks)
        ]

        main = nblocks - nblocks // 10  # trailing blocks become satellites
        links = max(main - 1, 0)
        bridge_quota = max(
            0,
            min(
                max(links, round(0.02 * num_edges)) if links else 0,
                num_edges - nblocks,  # every block keeps at least one edge
            ),
        )

        shares = np.array(
            [q_hi - q_lo for (q_lo, q_hi), _ in spans], dtype=np.float64
        )
        quotas = rng.multinomial(num_edges - bridge_quota, shares / shares.sum())
        # clip overfull blocks and hand the excess to the emptiest ones
        caps = np.array(
            [
                (q_hi - q_lo) * (a_hi - a_lo)
                for (q_lo, q_hi), (a_lo, a_hi) in spans
            ],
            dtype=np.int64,
        )
        caps = np.maximum((caps * 3) // 10, 1)
        overflow = int(np.maximum(quotas - caps, 0).sum())
        quotas = np.minimum(quotas, caps)
        while overflow > 0:
            room = caps - quotas
            b = int(np.argmax(room))
            if room[b] <= 0:
                raise ValueError(
                    "edge sampling failed to converge; graph too dense"
                )
            grant = min(overflow, int(room[b]))
            quotas[b] += grant
            overflow -= grant

        chosen: set[int] = set()
        for b, (q_span, a_span) in enumerate(spans):
            _sample_block(
                rng, q_span, a_span, int(quotas[b]), gamma, num_ads, chosen
            )

        if bridge_quota:
            per_link = np.zeros(links, dtype=np.int64)
            per_link += bridge_quota // links
            per_link[: bridge_quota % links] += 1
            for k in range(links):
                (q_lo, q_hi), _ = spans[k]
                _, (a_lo, a_hi) = spans[k + 1]
                _sample_block(
                    rng,
                    (q_lo, q_hi),
                    (a_lo, a_hi),
                    int(per_link[k]),
                    gamma,
                    num_ads,
                    chosen,
                )
        keys = np.sort(np.fromiter(chosen, dtype=np.int64, count=num_edges))

    q_idx = keys // num_ads
    a_idx = keys % num_ads

    n = num_edges
    impressions = 1 + np.minimum(
        ((rng.pareto(2.0, n) + 1.0) * 20.0).astype(np.int64), 1_000_000
    )
    rates = rng.beta(1.5, 8.0, n)
    clicks = rng.binomial(impressions, rates)
    ecr = np.where(clicks > 0, clicks / impressions, 0.5 / impressions)
    ecr = np.minimum(ecr, 1.0)

    return ClickGraph(
        [f"q{i}" for i in range(num_queries)],
        [f"a{j}" for j in range(num_ads)],
        q_idx,
        a_idx,
        impressions,
        clicks,
        ecr,
    )


# -- surgery ------------------------------------------------------------------


def remove_edges(
    graph: ClickGraph, edges: Iterable[tuple[NodeId, NodeId]]
) -> ClickGraph:
    """Return a copy of ``graph`` without the given (query, ad) edges.

    Both endpoints stay in the graph even if they end up isolated.
    Removing an edge that does not exist is an error.
    """
    drop = np.zeros(graph.num_edges, dtype=bool)
    for query, ad in edges:
        graph._check_pair(query, ad)
        e = graph._find_edge(query.index, ad.index)
        if e < 0:
            raise ValueError(
                f"cannot remove missing edge "
                f"({graph.label(query)!r}, {graph.label(ad)!r})"
            )
        drop[e] = True
    keep = ~drop
    return ClickGraph(
        graph.query_labels,
        graph.ad_labels,
        graph._eq[keep],
        graph._ea[keep],
        graph._imp[keep],
        graph._clk[keep],
        graph._ecr[keep],
    )


def _component_labels(graph: ClickGraph) -> tuple[int, np.ndarray, np.ndarray]:
    """Number of connected components, and the component of each node
    (queries, then ads) and of each edge.  Isolated nodes are components
    of their own."""
    adj = sparse.bmat(
        [[None, graph.query_adjacency], [graph.ad_adjacency, None]], format="csr"
    )
    count, labels = sparse.csgraph.connected_components(adj, directed=False)
    return count, labels, labels[graph._eq]


def extract_components(graph: ClickGraph) -> list[ClickGraph]:
    """Split ``graph`` into connected components.

    Every node lands in exactly one component (isolated nodes become
    single-node graphs with no edges).  Components are ordered by
    descending edge count; ties keep discovery order, which follows node
    indices, so the result is deterministic.
    """
    nq, na = graph.num_queries, graph.num_ads
    if nq + na == 0:
        return []

    n_comp, labels, edge_labels = _component_labels(graph)
    queries, q_local = _group_by(labels[:nq], n_comp)
    ads, a_local = _group_by(labels[nq:], n_comp)
    edges, _ = _group_by(edge_labels, n_comp)

    out = [
        ClickGraph(
            [graph.query_labels[i] for i in q_nodes.tolist()],
            [graph.ad_labels[j] for j in a_nodes.tolist()],
            q_local[graph._eq[e]],
            a_local[graph._ea[e]],
            graph._imp[e],
            graph._clk[e],
            graph._ecr[e],
        )
        for q_nodes, a_nodes, e in zip(queries, ads, edges)
    ]
    out.sort(key=lambda g: -g.num_edges)
    return out


def _group_by(
    groups: np.ndarray, count: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Positions of each group's members in ascending order, one array per
    group, and each position's rank within its group."""
    order = np.argsort(groups, kind="stable")
    sizes = np.bincount(groups, minlength=count)
    starts = np.cumsum(sizes) - sizes
    rank = np.empty(groups.size, dtype=np.int64)
    rank[order] = np.arange(groups.size) - np.repeat(starts, sizes)
    return np.split(order, starts[1:]), rank
