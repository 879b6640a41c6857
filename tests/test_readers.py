"""What the score-dump reader and the graph loader accept and reject.

Both read every chunk of a file in bulk, odd input included (CRLF line
ends, NUL bytes, labels over 64 bytes, non-ASCII labels), and number the
lines to name a fault.  These tests pin the accepted input and the
faults against per-line reference loaders kept here, which read as
Python's text mode, ``float()``, ``int()`` and the label lookups do, and
against the writers.
"""

import importlib
import io
import math

import numpy as np
import pytest
from scipy import sparse

from clicksim import graph as graph_module
from clicksim.baselines import common_ad_scores, pearson_scores
from clicksim.evidence import evidence_simrank
from clicksim.graph import (
    ClickGraph,
    GraphFormatError,
    canonical_label,
    demo_graph,
    generate_synthetic,
    load_graph,
    save_graph,
)
from clicksim.lines import byte_chunks
from clicksim.simrank import SimilarityScores, simrank
from clicksim.weighted import weighted_simrank

# the package exports a function of the same name
simrank_module = importlib.import_module("clicksim.simrank")


# -- references: the per-line loader and table build the bulk ones replaced --


def reference_load(path) -> ClickGraph:
    """The graph file loader as it read one line at a time."""
    q_labels, a_labels, q_index, a_index = [], [], {}, {}
    qs, As, imps, clks, ecrs = [], [], [], [], []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            where = f"line {lineno}"
            if len(fields) != 5:
                raise GraphFormatError(
                    f"{where}: expected 5 tab-separated fields, got {len(fields)}"
                )
            query, ad, imp_s, clk_s, ecr_s = fields
            try:
                imp, clk, ecr = int(imp_s), int(clk_s), float(ecr_s)
            except ValueError:
                raise GraphFormatError(
                    f"{where}: non-numeric impressions/clicks/ecr"
                ) from None
            query, ad = canonical_label(query), ad.strip()
            if not query or not ad:
                raise GraphFormatError(f"{where}: empty query or ad label")
            if imp < 0 or clk < 0:
                raise GraphFormatError(f"{where}: negative impression or click count")
            if clk > imp:
                raise GraphFormatError(f"{where}: clicks ({clk}) exceed impressions ({imp})")
            if not math.isfinite(ecr) or ecr < 0.0 or ecr > 1.0:
                raise GraphFormatError(f"{where}: expected click rate {ecr!r} not in [0, 1]")
            qi = q_index.setdefault(query, len(q_labels))
            if qi == len(q_labels):
                q_labels.append(query)
            ai = a_index.setdefault(ad, len(a_labels))
            if ai == len(a_labels):
                a_labels.append(ad)
            if (qi, ai) in seen:
                raise GraphFormatError(f"{where}: duplicate edge ({query!r}, {ad!r})")
            seen.add((qi, ai))
            qs.append(qi)
            As.append(ai)
            imps.append(imp)
            clks.append(clk)
            ecrs.append(ecr)
    return ClickGraph(
        q_labels, a_labels, np.array(qs, dtype=np.int64), np.array(As, dtype=np.int64),
        np.array(imps, dtype=np.int64), np.array(clks, dtype=np.int64),
        np.array(ecrs, dtype=np.float64),
    )


def reference_from_records(records) -> ClickGraph:
    """:meth:`ClickGraph.from_records` as it checked one record at a time."""
    q_labels, a_labels, q_index, a_index = [], [], {}, {}
    qs, As, imps, clks, ecrs = [], [], [], [], []
    seen = set()
    for row, (query, ad, imp, clk, ecr) in enumerate(records, start=1):
        where = f"record {row}"
        query, ad = canonical_label(query), ad.strip()
        if not query or not ad:
            raise GraphFormatError(f"{where}: empty query or ad label")
        if imp < 0 or clk < 0:
            raise GraphFormatError(f"{where}: negative impression or click count")
        if clk > imp:
            raise GraphFormatError(f"{where}: clicks ({clk}) exceed impressions ({imp})")
        if not math.isfinite(ecr) or ecr < 0.0 or ecr > 1.0:
            raise GraphFormatError(f"{where}: expected click rate {ecr!r} not in [0, 1]")
        qi = q_index.setdefault(query, len(q_labels))
        if qi == len(q_labels):
            q_labels.append(query)
        ai = a_index.setdefault(ad, len(a_labels))
        if ai == len(a_labels):
            a_labels.append(ad)
        if (qi, ai) in seen:
            raise GraphFormatError(f"{where}: duplicate edge ({query!r}, {ad!r})")
        seen.add((qi, ai))
        qs.append(qi)
        As.append(ai)
        imps.append(imp)
        clks.append(clk)
        ecrs.append(ecr)
    return ClickGraph(
        q_labels, a_labels, np.array(qs, dtype=np.int64), np.array(As, dtype=np.int64),
        np.array(imps, dtype=np.int64), np.array(clks, dtype=np.int64),
        np.array(ecrs, dtype=np.float64),
    )


def reference_table(path, graph) -> sparse.csr_matrix:
    """The score table as the per-line reader built it from a valid dump:
    both triangles as COO arrays, converted by scipy."""
    rows, cols, vals = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.isspace():
                continue
            a, b, v = line.split("\t")
            rows.append(graph.query_id(a).index)
            cols.append(graph.query_id(b).index)
            vals.append(float(v))
    rows = np.array(rows, dtype=np.int32)
    cols = np.array(cols, dtype=np.int32)
    vals = np.array(vals, dtype=np.float64)
    n = graph.num_queries
    return sparse.csr_matrix(
        (np.concatenate((vals, vals)),
         (np.concatenate((rows, cols)), np.concatenate((cols, rows)))),
        shape=(n, n),
    )


def assert_same_graph(got: ClickGraph, want: ClickGraph):
    assert got.query_labels == want.query_labels
    assert got.ad_labels == want.ad_labels
    for name in ("_eq", "_ea", "_imp", "_clk", "_ecr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_same_arrays(got: sparse.csr_matrix, want: sparse.csr_matrix):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# -- reloaded graphs and tables equal the per-line builds ---------------------


@pytest.mark.parametrize("chunk", [None, 200])
@pytest.mark.parametrize("shape, seed", [((600, 600, 1800), 42), ((300, 300, 900), 7)])
def test_loaded_graph_equals_the_reference(tmp_path, monkeypatch, shape, seed, chunk):
    if chunk is not None:
        monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", chunk)
    path = tmp_path / "graph.tsv"
    save_graph(generate_synthetic(*shape, seed=seed), path)
    assert_same_graph(load_graph(path), reference_load(path))


@pytest.mark.parametrize(
    "score",
    [simrank, evidence_simrank, weighted_simrank, pearson_scores, common_ad_scores],
    ids=["simple", "evidence", "weighted", "pearson", "common"],
)
def test_reloaded_table_equals_the_reference_arrays(tmp_path, score):
    graph = generate_synthetic(600, 600, 1800, seed=42)
    path = tmp_path / "scores.tsv"
    score(graph).write(path)
    assert_same_arrays(SimilarityScores.read(path, graph).matrix, reference_table(path, graph))


def test_reloaded_table_keeps_zero_scores(tmp_path, demo):
    path = tmp_path / "scores.tsv"
    path.write_text("# method=pearson\ncamera\tpc\t0.000000\npc\ttv\t-0.000000\n")
    table = SimilarityScores.read(path, demo)
    assert_same_arrays(table.matrix, reference_table(path, demo))
    assert table.matrix.nnz == 4


# -- what both readers accept -----------------------------------------------

GRAPH_LINES = ["q1\ta1\t10\t1\t0.100000", "q2\ta1\t10\t2\t0.200000",
               "q2\ta2\t5\t5\t1.000000", "q3\ta2\t7\t0\t0.000000"]


def _dump_lines(graph):
    out = io.StringIO()
    simrank(graph).write(out)
    return out.getvalue().splitlines()


def _write(path, lines, newline="\n", final=True):
    path.write_bytes((newline.join(lines) + (newline if final else "")).encode("utf-8"))


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_graph_loader_takes_universal_newlines(tmp_path, newline):
    path = tmp_path / "graph.tsv"
    _write(path, GRAPH_LINES, newline)
    assert_same_graph(load_graph(path), reference_load(path))
    assert load_graph(path).num_edges == 4
    # faults are numbered as text mode numbers the lines
    _write(path, GRAPH_LINES + ["q9\ta9\t1"], newline)
    with pytest.raises(GraphFormatError, match="^line 5: expected 5"):
        load_graph(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_dump_reader_takes_universal_newlines(tmp_path, demo, newline):
    lines = _dump_lines(demo)
    path = tmp_path / "scores.tsv"
    _write(tmp_path / "plain.tsv", lines)
    _write(path, lines, newline)
    want = SimilarityScores.read(tmp_path / "plain.tsv", demo).matrix
    assert_same_arrays(SimilarityScores.read(path, demo).matrix, want)
    _write(path, lines + ["pc\tnosuch\t0.5"], newline)
    with pytest.raises(ValueError, match=f"scores.tsv:{len(lines) + 1}: unknown query label"):
        SimilarityScores.read(path, demo)


def test_both_readers_take_a_file_without_final_newline(tmp_path, demo):
    path = tmp_path / "graph.tsv"
    _write(path, GRAPH_LINES, final=False)
    assert load_graph(path).num_edges == 4
    _write(path, _dump_lines(demo), final=False)
    assert SimilarityScores.read(path, demo).pair_count == len(_dump_lines(demo))


def test_both_readers_take_non_canonical_query_labels(tmp_path, demo):
    path = tmp_path / "graph.tsv"
    _write(path, ["Q1\ta1\t10\t1\t0.1", "  q2 \ta1\t10\t1\t0.1", "q1\ta2\t10\t1\t0.1"])
    graph = load_graph(path)
    assert graph.query_labels == ("q1", "q2")
    assert_same_graph(graph, reference_load(path))
    _write(path, ["CAMERA\t  pc\t0.5", "Digital  Camera\ttv\t0.25"])
    table = SimilarityScores.read(path, demo)
    assert table.similarity(demo.query_id("pc"), demo.query_id("camera")) == 0.5
    assert table.pair_count == 2


def test_both_readers_take_the_numbers_python_takes(tmp_path, demo):
    path = tmp_path / "graph.tsv"
    _write(path, ["q1\ta1\t +50\t1_0\t 5e-1", "q2\ta1\t0010\t+3\t1_0e-1", "q3\ta1\t7\t0\t.25 "])
    graph = load_graph(path)
    assert_same_graph(graph, reference_load(path))
    assert graph._imp.tolist() == [50, 10, 7] and graph._clk.tolist() == [10, 3, 0]
    assert graph._ecr.tolist() == [0.5, 1.0, 0.25]
    _write(path, ["# method=common", "camera\tpc\t +5", "pc\ttv\t 5e-1", "camera\ttv\t1_0e-1"])
    table = SimilarityScores.read(path, demo)
    assert sorted(table.matrix.data.tolist()) == [0.5, 0.5, 1.0, 1.0, 5.0, 5.0]


def test_both_readers_reject_invalid_utf8(tmp_path, demo):
    path = tmp_path / "graph.tsv"
    path.write_bytes(b"q1\ta1\t10\t1\t0.1\nq\xff\ta1\t10\t1\t0.1\n")
    with pytest.raises(UnicodeDecodeError):
        load_graph(path)
    path.write_bytes(b"camera\tpc\t0.5\npc\t\xfftv\t0.5\n")
    with pytest.raises(UnicodeDecodeError):
        SimilarityScores.read(path, demo)


def test_both_readers_keep_a_byte_order_mark_in_the_first_label(tmp_path, demo):
    path = tmp_path / "graph.tsv"
    path.write_bytes("﻿".encode("utf-8") + "\n".join(GRAPH_LINES).encode("utf-8"))
    graph = load_graph(path)
    assert graph.query_labels[0] == "﻿q1"
    with pytest.raises(ValueError, match="unknown query label: 'q1'"):
        graph.query_id("q1")
    path = tmp_path / "scores.tsv"
    path.write_bytes("﻿camera\tpc\t0.5\n".encode("utf-8"))
    with pytest.raises(ValueError, match="scores.tsv:1: unknown query label"):
        SimilarityScores.read(path, demo)


def test_both_readers_name_a_misfit_first_data_line_after_a_nul_comment(tmp_path, demo):
    # the chunk holds a NUL byte but no data row to look it up in
    path = tmp_path / "scores.tsv"
    path.write_bytes(b"# a comment holding \0\npc\tcamera\n")
    with pytest.raises(ValueError, match="scores.tsv:2: expected 3 tab-separated fields"):
        SimilarityScores.read(path, demo)
    path = tmp_path / "graph.tsv"
    path.write_bytes(b"# a comment holding \0\nq\ta\t1\n")
    with pytest.raises(GraphFormatError, match="^line 2: expected 5 tab-separated fields"):
        load_graph(path)


# -- odd labels and line ends: every chunk read as the references read it ----

ODD_QUERIES = ["q", "q\0", "q\0x", "\0", "long query " * 7, "café crème", "日本 旅行"]
ODD_ADS = ["a", "a\0", "\0", "long-ad-" * 9, "shop-é", "旅行社.jp"]


@pytest.fixture(scope="module")
def odd_graph():
    records = [
        (query, ODD_ADS[(i + step) % len(ODD_ADS)], 10, 1 + step, 0.25 * (1 + step))
        for i, query in enumerate(ODD_QUERIES)
        for step in (0, 1)
    ]
    return ClickGraph.from_records(records)


def _with_newline(path, newline):
    """Rewrite the LF file at ``path`` with ``newline`` line ends."""
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode("ascii")))


@pytest.mark.parametrize("chunk", [None, 64, 200])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_graph_loader_reads_odd_labels_as_the_reference(
    tmp_path, monkeypatch, odd_graph, newline, chunk
):
    if chunk is not None:
        monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", chunk)
    path = tmp_path / "graph.tsv"
    save_graph(odd_graph, path)
    _with_newline(path, newline)
    graph = load_graph(path)
    assert_same_graph(graph, reference_load(path))
    assert_same_graph(graph, odd_graph)
    assert {"q", "q\0", "q\0x", "\0"} <= set(graph.query_labels)


@pytest.mark.parametrize("chunk", [None, 64, 200])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_dump_reader_reads_odd_labels_as_the_reference(
    tmp_path, monkeypatch, odd_graph, newline, chunk
):
    if chunk is not None:
        monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", chunk)
    table = simrank(odd_graph)
    path = tmp_path / "scores.tsv"
    table.write(path)
    _with_newline(path, newline)
    got = SimilarityScores.read(path, odd_graph).matrix
    assert_same_arrays(got, reference_table(path, odd_graph))
    assert got.nnz == table.matrix.nnz


@pytest.mark.parametrize("kind", ["graph", "dump"])
def test_lone_carriage_return_file_reads_in_chunks_as_its_lf_copy(tmp_path, monkeypatch, kind):
    graph = generate_synthetic(60, 60, 180, seed=3)
    lf, cr = tmp_path / "lf.tsv", tmp_path / "cr.tsv"
    if kind == "graph":
        save_graph(graph, lf)
        monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", 200)
    else:
        simrank(graph).write(lf)
        monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", 200)
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    assert len(list(byte_chunks(cr, 200))) > 10
    if kind == "graph":
        assert_same_graph(load_graph(cr), load_graph(lf))
    else:
        want = SimilarityScores.read(lf, graph).matrix
        assert_same_arrays(SimilarityScores.read(cr, graph).matrix, want)


# -- graph faults: the same message and line as the per-line loader ----------


def _fields(line):
    return line.split("\t")


def _with(line, **changes):
    query, ad, imp, clk, ecr = _fields(line)
    values = dict(query=query, ad=ad, imp=imp, clk=clk, ecr=ecr) | changes
    return "\t".join(values[k] for k in ("query", "ad", "imp", "clk", "ecr"))


# each fault made of line ``at`` (1-based) of a valid file; ``lines[2]``
# is the edge a duplicate repeats
GRAPH_FAULTS = {
    "four fields": lambda lines, at: lines[at - 1].rsplit("\t", 1)[0],
    "six fields": lambda lines, at: lines[at - 1] + "\t1",
    "non-numeric count": lambda lines, at: _with(lines[at - 1], imp="many"),
    "non-numeric rate": lambda lines, at: _with(lines[at - 1], ecr="0.1.2"),
    "negative count": lambda lines, at: _with(lines[at - 1], clk="-1"),
    "clicks above impressions": lambda lines, at: _with(
        lines[at - 1], clk=str(int(_fields(lines[at - 1])[2]) + 1)),
    "rate above one": lambda lines, at: _with(lines[at - 1], ecr="1.000001"),
    "rate below zero": lambda lines, at: _with(lines[at - 1], ecr="-0.000001"),
    "rate nan": lambda lines, at: _with(lines[at - 1], ecr="nan"),
    "empty query": lambda lines, at: _with(lines[at - 1], query="  "),
    "empty ad": lambda lines, at: _with(lines[at - 1], ad=""),
    "duplicate edge": lambda lines, at: lines[2],
    "duplicate by canonical label": lambda lines, at: _with(
        lines[2], query=_fields(lines[2])[0].upper()),
}


@pytest.fixture(scope="module")
def graph_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.tsv"
    save_graph(generate_synthetic(60, 60, 180, seed=3), path)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "at, newline",
    [
        pytest.param(at, newline, id=f"{at}{suffix}")
        for newline, suffix in (("\n", ""), ("\r\n", "-crlf"))
        for at in (4, 9, 10, 23, 60, 180)
    ],
)
@pytest.mark.parametrize("kind", sorted(GRAPH_FAULTS))
def test_graph_fault_matches_the_per_line_loader(
    tmp_path, monkeypatch, graph_lines, kind, at, newline
):
    monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", 64)
    lines = list(graph_lines)
    lines[at - 1] = GRAPH_FAULTS[kind](lines, at)
    path = tmp_path / "graph.tsv"
    _write(path, lines, newline)
    with pytest.raises(GraphFormatError) as want:
        reference_load(path)
    assert f"line {at}:" in str(want.value)
    with pytest.raises(GraphFormatError) as got:
        load_graph(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("second", [30, 120])
@pytest.mark.parametrize("later", ["four fields", "duplicate edge", "rate nan"])
@pytest.mark.parametrize("earlier", ["empty ad", "negative count", "duplicate by canonical label"])
def test_graph_loader_names_the_earlier_of_two_faults(
    tmp_path, monkeypatch, graph_lines, earlier, later, second
):
    monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", 64)
    lines = list(graph_lines)
    lines[11] = GRAPH_FAULTS[earlier](lines, 12)
    lines[second - 1] = GRAPH_FAULTS[later](lines, second)
    path = tmp_path / "graph.tsv"
    _write(path, lines)
    with pytest.raises(GraphFormatError, match="^line 12: ") as got:
        load_graph(path)
    with pytest.raises(GraphFormatError) as want:
        reference_load(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("chunk", [64, 1 << 20])
@pytest.mark.parametrize(
    "extra",
    [
        ["# a comment", "", "   ", "\t\t", "  # indented comment", "\u3000", "\x1c"],
        ["Q1\tad-é\t3\t1\t0.5", "q2\t" + "long-ad-" * 9 + "\t3\t1\t0.5"],
    ],
)
def test_graph_loader_reads_what_the_per_line_loader_reads(
    tmp_path, monkeypatch, graph_lines, extra, chunk
):
    monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", chunk)
    lines = list(graph_lines)
    for k, line in enumerate(extra):
        lines.insert(5 + 17 * k, line)
    path = tmp_path / "graph.tsv"
    _write(path, lines)
    assert_same_graph(load_graph(path), reference_load(path))


def test_graph_loader_takes_an_empty_file(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("")
    assert load_graph(path).num_edges == 0
    assert_same_graph(load_graph(path), reference_load(path))
    save_graph(demo_graph(), path)
    assert_same_graph(load_graph(path), demo_graph())


# -- a fault in a CRLF or NUL chunk after regular chunks ------------------------

# what makes the chunk holding line ``at`` odd: a CRLF line end or a NUL
# byte, on the line before it
ODD_CHUNKS = {
    "crlf": lambda lines, at: lines[at - 2] + "\r",
    "nul": lambda lines, at: _with(lines[at - 2], query=_fields(lines[at - 2])[0] + "\0"),
}


@pytest.mark.parametrize("chunk", [64, 200])
@pytest.mark.parametrize("at", [120, 170])
@pytest.mark.parametrize("odd", sorted(ODD_CHUNKS))
@pytest.mark.parametrize(
    "kind", ["four fields", "non-numeric count", "duplicate edge", "rate above one"]
)
def test_graph_fault_in_an_odd_chunk_is_named_at_its_line(
    tmp_path, monkeypatch, graph_lines, kind, odd, at, chunk
):
    monkeypatch.setattr(graph_module, "_READ_CHUNK_BYTES", chunk)
    lines = list(graph_lines)
    lines[at - 2] = ODD_CHUNKS[odd](lines, at)
    lines[at - 1] = GRAPH_FAULTS[kind](lines, at)
    path = tmp_path / "graph.tsv"
    _write(path, lines)
    with pytest.raises(GraphFormatError) as want:
        reference_load(path)
    assert str(want.value).startswith(f"line {at}: ")
    with pytest.raises(GraphFormatError) as got:
        load_graph(path)
    assert str(got.value) == str(want.value)


# each corruption of dump line ``at`` and the fault it must report;
# ``lines[1]`` is the pair the duplicate repeats, in swapped order
DUMP_FAULTS = {
    "field count": (lambda line, lines: line.rsplit("\t", 1)[0], "expected 3 tab-separated fields"),
    "unknown label": (lambda line, lines: "no such query\t" + line.split("\t", 1)[1],
                      "unknown query label: 'no such query'"),
    "score not a number": (lambda line, lines: line.rsplit("\t", 1)[0] + "\tn/a",
                           "score is not a number"),
    "duplicate": (lambda line, lines: "{1}\t{0}\t{2}".format(*lines[1].split("\t")),
                  "pair listed twice"),
    "out of range": (lambda line, lines: line.rsplit("\t", 1)[0] + "\t1.000001",
                     r"score outside \[0, 1\] for method=simple"),
}
# what makes the chunk holding dump line ``at`` odd, on the line before it
ODD_DUMP_CHUNKS = {
    "crlf": lambda lines, at: lines[at - 2] + "\r",
    "nul": lambda lines, at: "# a comment holding \0",
}


@pytest.mark.parametrize("chunk", [64, 200])
@pytest.mark.parametrize("at", [30, 55])
@pytest.mark.parametrize("odd", sorted(ODD_DUMP_CHUNKS))
@pytest.mark.parametrize("kind", sorted(DUMP_FAULTS))
def test_dump_fault_in_an_odd_chunk_is_named_at_its_line(
    tmp_path, monkeypatch, graph_lines, kind, odd, at, chunk
):
    monkeypatch.setattr(simrank_module, "_READ_CHUNK_BYTES", chunk)
    graph = ClickGraph.from_records([_record(line) for line in graph_lines])
    lines = _dump_lines(graph)[:60]
    lines[at - 2] = ODD_DUMP_CHUNKS[odd](lines, at)
    corrupt, message = DUMP_FAULTS[kind]
    lines[at - 1] = corrupt(lines[at - 1], lines)
    path = tmp_path / "scores.tsv"
    _write(path, lines)
    with pytest.raises(ValueError, match=f"scores.tsv:{at}: {message}$"):
        SimilarityScores.read(path, graph)


# -- from_records faults: the same message and record as the per-record loop --


def _record(line):
    query, ad, imp, clk, ecr = _fields(line)
    return query, ad, int(imp), int(clk), float(ecr)


# each fault made of record ``at`` (1-based) of valid records; ``records[2]``
# is the edge a duplicate repeats
RECORD_FAULTS = {
    "empty query": lambda records, at: ("  ", *records[at - 1][1:]),
    "empty ad": lambda records, at: (records[at - 1][0], " ", *records[at - 1][2:]),
    "negative impressions": lambda records, at: (*records[at - 1][:2], -1, 0, 0.0),
    "negative clicks": lambda records, at: (*records[at - 1][:3], -1, 0.0),
    "clicks above impressions": lambda records, at: (
        *records[at - 1][:3], records[at - 1][2] + 1, records[at - 1][4]),
    "rate above one": lambda records, at: (*records[at - 1][:4], 1.000001),
    "rate below zero": lambda records, at: (*records[at - 1][:4], -1e-6),
    "rate nan": lambda records, at: (*records[at - 1][:4], math.nan),
    "rate inf": lambda records, at: (*records[at - 1][:4], math.inf),
    "duplicate edge": lambda records, at: records[2],
    "duplicate by canonical label": lambda records, at: (
        " " + records[2][0].upper(), *records[2][1:]),
}


@pytest.fixture(scope="module")
def graph_records(graph_lines):
    return [_record(line) for line in graph_lines]


def _record_fault(records) -> str:
    with pytest.raises(GraphFormatError) as want:
        reference_from_records(records)
    with pytest.raises(GraphFormatError) as got:
        ClickGraph.from_records(records)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_from_records_equals_the_per_record_reference(graph_records):
    assert_same_graph(
        ClickGraph.from_records(graph_records), reference_from_records(graph_records)
    )
    assert_same_graph(ClickGraph.from_records([]), reference_from_records([]))


@pytest.mark.parametrize("at", [4, 23, 60, 180])
@pytest.mark.parametrize("kind", sorted(RECORD_FAULTS))
def test_from_records_fault_matches_the_per_record_loop(graph_records, kind, at):
    records = list(graph_records)
    records[at - 1] = RECORD_FAULTS[kind](records, at)
    assert _record_fault(records).startswith(f"record {at}: ")


@pytest.mark.parametrize("later", sorted(RECORD_FAULTS))
@pytest.mark.parametrize("earlier", sorted(RECORD_FAULTS))
def test_from_records_names_the_earlier_of_two_faults(graph_records, earlier, later):
    records = list(graph_records)
    records[11] = RECORD_FAULTS[earlier](records, 12)
    records[29] = RECORD_FAULTS[later](records, 30)
    assert _record_fault(records).startswith("record 12: ")
