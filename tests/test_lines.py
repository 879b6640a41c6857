"""The bulk line formatter and the writers built on it, against per-line
f-string references; the bulk reading core, against Python's own text
reading, ``float()``, ``int()`` and label dicts."""

import importlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from clicksim import graph as graph_module
from clicksim.baselines import common_ad_scores, pearson_scores
from clicksim.evidence import evidence_simrank
from clicksim.graph import ClickGraph, demo_graph, generate_synthetic, save_graph
from clicksim import lines as lines_module
from clicksim.lines import (
    LabelIndex,
    LabelTable,
    byte_chunks,
    format_lines,
    parse_floats,
    parse_ints,
    split_fields,
    text_lines,
)
from clicksim.simrank import Method, SimilarityScores, printed_score, simrank
from clicksim.weighted import weighted_simrank

# the package exports a function of the same name
simrank_module = importlib.import_module("clicksim.simrank")

# -- references: the per-line f-string writers the bulk ones replaced -------


def reference_lines(*columns) -> bytes:
    """What ``format_lines`` must return, one f-string per line."""
    fields = []
    for column in columns:
        if isinstance(column, tuple):
            labels, index = column
            fields.append([labels[i] for i in index.tolist()])
        elif np.issubdtype(column.dtype, np.integer):
            fields.append([f"{v}" for v in column.tolist()])
        else:
            fields.append([f"{v:.6f}" for v in column.tolist()])
    return "".join("\t".join(row) + "\n" for row in zip(*fields)).encode("utf-8")


def reference_dump(scores: SimilarityScores) -> str:
    out = io.StringIO()
    if scores.method != Method.SIMPLE.value:
        out.write(f"# method={scores.method}\n")
    coo = sparse.triu(scores.matrix, k=1).tocoo()
    labels = scores.query_labels
    rows = sorted(
        (*sorted((labels[i], labels[j])), v)
        for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    )
    for a, b, v in rows:
        out.write(f"{a}\t{b}\t{v:.6f}\n")
    for i, j in scores.degenerate_pairs:
        a, b = sorted((labels[i], labels[j]))
        out.write(f"# degenerate\t{a}\t{b}\n")
    return out.getvalue()


def reference_graph_file(graph: ClickGraph) -> str:
    out = io.StringIO()
    for q, a, st_ in graph.edges():
        out.write(
            f"{graph.label(q)}\t{graph.label(a)}\t{st_.impressions}\t"
            f"{st_.clicks}\t{st_.expected_click_rate:.6f}\n"
        )
    return out.getvalue()


def _formatted(*columns) -> bytes:
    return format_lines(*columns).tobytes()


def _labels(columns):
    """``format_lines`` columns with label tuples given as plain lists."""
    return [
        (LabelTable(c[0]), c[1]) if isinstance(c, tuple) else c for c in columns
    ]


# -- the formatter ----------------------------------------------------------

any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]),
    # halfway at the 7th decimal: exact in binary (k / 2**m) or not
    st.builds(lambda k, m: k / 2.0**m, st.integers(-(2**20), 2**20), st.integers(7, 30)),
    st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 1e6),
)
any_int = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(any_int, any_float), min_size=1, max_size=60))
def test_formatter_matches_f_strings(rows):
    ints = np.array([i for i, _ in rows], dtype=np.int64)
    floats = np.array([v for _, v in rows], dtype=np.float64)
    assert _formatted(ints, floats) == reference_lines(ints, floats)
    assert _formatted(floats) == reference_lines(floats)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=90),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    st.lists(st.tuples(st.integers(0, 7), st.floats(-2.0, 2.0)), min_size=1, max_size=40),
)
def test_formatter_matches_f_strings_with_labels(labels, rows):
    index = np.array([i % len(labels) for i, _ in rows])
    floats = np.array([v for _, v in rows])
    columns = [(labels, index), floats, (labels, index[::-1].copy())]
    assert _formatted(*_labels(columns)) == reference_lines(*columns)


@pytest.mark.parametrize(
    "values",
    [
        # exact ties k / 2**m at the 7th decimal and beyond
        [k / 2.0**m for m in range(1, 30) for k in range(1, 40, 2)],
        # decimal ties that are inexact in binary: y lands on or next to
        # a half-integer, and only the exact value says which way it goes
        [(k + 0.5) / 1e6 for k in range(0, 3000)],
        [math.nextafter((k + 0.5) / 1e6, d) for k in range(0, 3000) for d in (0, 1)],
        # values that round up to 1.000000 or just miss it
        [0.9999995, 0.99999949999, 0.99999950001, math.nextafter(0.9999995, 0),
         math.nextafter(0.9999995, 1), 0.9999999999, 1.0, math.nextafter(1.0, 0)],
        # signs, zeros and values that print as zero
        [-0.0, 0.0, -1e-9, 1e-9, -4.9e-7, -5e-7, -5.1e-7, 5e-324, -5e-324, 2.2e-308],
        # non-finite and huge, near and past the fast path's limit
        [math.nan, -math.nan, math.inf, -math.inf, 1e300, -1e300, 2.0**50 / 1e6,
         math.nextafter(2.0**50 / 1e6, 0), 1e9 + 0.5, 123456789.1234565],
    ],
    ids=["dyadic-ties", "decimal-ties", "near-ties", "round-to-one", "signs", "huge"],
)
def test_formatter_fixed_floats(values):
    floats = np.array(values, dtype=np.float64)
    assert _formatted(floats) == reference_lines(floats)
    assert _formatted(-floats) == reference_lines(-floats)


def test_formatter_fixed_ints():
    ints = np.array(
        [0, 1, -1, 9, 10, 99, 100, 10**12, -(10**12), 2**31, 2**32, 2**32 - 1,
         10**18, 2**63 - 1, -(2**63)],
        dtype=np.int64,
    )
    assert _formatted(ints) == reference_lines(ints)
    assert _formatted(ints.astype(np.int32, casting="unsafe")) == reference_lines(
        ints.astype(np.int32, casting="unsafe")
    )


def test_formatter_labels_long_and_non_ascii():
    labels = ["", "a", "é", "日本語のクエリ", "x" * 64, "y" * 65, "ü" * 40, "q" * 300]
    index = np.array([7, 0, 1, 2, 3, 4, 5, 6, 7, 5, 0, 3])
    floats = np.linspace(-1, 1, index.size)
    ints = np.arange(index.size) * 10**11
    columns = [(labels, index), ints, (labels, index[::-1].copy()), floats]
    assert _formatted(*_labels(columns)) == reference_lines(*columns)
    # a label as the last field is followed by the newline
    columns = [floats, (labels, index)]
    assert _formatted(*_labels(columns)) == reference_lines(*columns)


def test_formatter_empty_chunk():
    table = LabelTable(["a"])
    empty = np.empty(0, dtype=np.int64)
    assert _formatted((table, empty), empty, empty.astype(float)) == b""


def test_printed_text_parses_to_printed_score():
    rng = np.random.default_rng(5)
    values = np.concatenate(
        [rng.random(5000), rng.uniform(-1, 1, 5000), (np.arange(4000) + 0.5) / 1e6]
    )
    text = format_lines(values).tobytes().decode().splitlines()
    assert [float(t) for t in text] == [printed_score(v) for v in values.tolist()]


# -- the writers ------------------------------------------------------------


@pytest.fixture(scope="module")
def graph_600():
    return generate_synthetic(600, 600, 1800, seed=42)


@pytest.mark.parametrize(
    "score",
    [simrank, evidence_simrank, weighted_simrank, pearson_scores, common_ad_scores],
    ids=["simple", "evidence", "weighted", "pearson", "common"],
)
def test_dump_matches_reference_writer(graph_600, score):
    scores = score(graph_600)
    buf = io.StringIO()
    scores.write(buf)
    assert buf.getvalue() == reference_dump(scores)
    if score is pearson_scores:
        assert scores.degenerate_pairs and "# degenerate" in buf.getvalue()


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_dump_chunk_boundaries(monkeypatch, graph_600, chunk):
    monkeypatch.setattr(simrank_module, "_WRITE_CHUNK_PAIRS", chunk)
    scores = simrank(graph_600)
    if chunk == 1:  # one pair per chunk is slow on the whole table
        scores.matrix = scores.matrix[:80, :80]
        scores.query_labels = scores.query_labels[:80]
    buf = io.StringIO()
    scores.write(buf)
    assert buf.getvalue() == reference_dump(scores)


def test_written_scores_read_back_as_printed_scores(tmp_path, graph_600):
    scores = simrank(graph_600)
    path = tmp_path / "scores.tsv"
    scores.write(path)
    index = {label: i for i, label in enumerate(scores.query_labels)}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b, text = line.split("\t")
            stored = scores.matrix[index[a], index[b]]
            assert float(text) == printed_score(stored)


def test_unicode_dump_matches_reference_writer():
    records = [
        ("café crème", "shop-é", 10, 3, 0.3),
        ("日本 旅行", "shop-é", 10, 3, 0.0078125),
        ("zürich hotel", "shop-é", 10, 3, 0.5),
        ("z" * 100, "shop-é", 10, 3, 0.5),
        ("café crème", "ad-2", 10, 3, 0.25),
        ("日本 旅行", "ad-2", 10, 3, 0.25),
    ]
    scores = simrank(ClickGraph.from_records(records))
    buf = io.StringIO()
    scores.write(buf)
    assert buf.getvalue() == reference_dump(scores)


@pytest.mark.parametrize(
    "shape, seed",
    [((600, 600, 1800), 42), ((2000, 2000, 6000), 42), ((300, 300, 900), 7)],
)
def test_graph_file_matches_reference_writer(tmp_path, shape, seed):
    graph = generate_synthetic(*shape, seed=seed)
    path = tmp_path / "graph.tsv"
    save_graph(graph, path)
    assert path.read_text(encoding="utf-8") == reference_graph_file(graph)


def test_graph_file_unicode_and_large_counts(monkeypatch):
    monkeypatch.setattr(graph_module, "_WRITE_CHUNK_EDGES", 3)
    records = [
        ("café crème", "boulangerie-é", 10**12, 10**11, 0.1),
        ("日本 旅行", "旅行社.jp", 10**12 + 1, 0, 0.0078125),
        ("zürich hotel", "hôtel-" + "ß" * 70, 1, 1, 1.0),
        ("café crème", "旅行社.jp", 2**62, 2**61, 2.5e-06),
        ("ελληνικά", "boulangerie-é", 7, 0, 0.0),
    ]
    graph = ClickGraph.from_records(records)
    buf = io.StringIO()
    save_graph(graph, buf)
    assert buf.getvalue() == reference_graph_file(graph)
    buf = io.StringIO()
    save_graph(demo_graph(), buf)
    assert buf.getvalue() == reference_graph_file(demo_graph())


# -- the reading core --------------------------------------------------------


def _never(line):
    return False


def _column(texts, count=2):
    """The fields of a chunk of ``label<TAB>text`` lines, one per text."""
    chunk = "".join(f"x\t{t}\n" for t in texts).encode("utf-8")
    fields = split_fields(chunk, count, _never, 1)
    assert fields.misfit is None
    return fields


def _python_numbers(texts, parse, dtype):
    """``parse`` of each text, 0 where it raises, and a mask of those."""
    values, bad = [], []
    for text in texts:
        try:
            values.append(parse(text))
            bad.append(False)
        except ValueError:
            values.append(0)
            bad.append(True)
    return np.array(values, dtype=dtype), bad


def _int64(text):
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError("does not fit int64")
    return value


number_text = st.one_of(
    # the dump and graph writers' own form, from any float
    any_float.map(lambda v: f"{v:.6f}"),
    st.integers(-(10**17), 10**17).map(lambda k: f"{k // 10**6}.{abs(k) % 10**6:06d}"),
    st.integers(0, 10**20).map(str),
    # anything else float() or int() may or may not take
    st.text(alphabet="0123456789.-+e_ x", max_size=20),
    st.sampled_from(["", " 5", "+5", "5e-1", "1_0e-1", "00.500000", "-0.000000",
                     ".500000", "5.", "0.5000000", "٣", "1.23456", "--1.000000"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(number_text, min_size=1, max_size=40))
def test_parse_floats_equals_float(texts):
    want, want_bad = _python_numbers(texts, float, np.float64)
    got, bad = parse_floats(_column(texts), 1)
    # the mask is exactly the fields float() rejects
    assert bad.tolist() == want_bad
    # bit for bit, signed zeros and nans included, 0.0 where rejected
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(number_text, min_size=1, max_size=40))
def test_parse_ints_equals_int(texts):
    want, want_bad = _python_numbers(texts, _int64, np.int64)
    got, bad = parse_ints(_column(texts), 1)
    # the mask is exactly the fields int() rejects or int64 cannot hold
    assert bad.tolist() == want_bad
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_parse_floats_fast_form_at_its_limits():
    texts = ["999999999.999999", "-999999999.999999", "0.000001", "1000000000.000000",
             "9007199254.740993", "0.0000005", "123456789012.345678"]
    got, bad = parse_floats(_column(texts), 1)
    assert got.tolist() == [float(t) for t in texts]
    assert not bad.any()


def test_space_leads_are_the_utf8_starts_of_python_whitespace():
    leads = {chr(c).encode("utf-8")[0] for c in range(0x110000) if chr(c).isspace()}
    assert leads == set(lines_module._SPACE_LEADS)


def _split(fields):
    """The texts of a :class:`Fields`' rows, with their line numbers."""
    return [
        (number, [fields.text(i, k) for k in range(fields.starts.shape[1])])
        for i, number in enumerate(fields.numbers)
    ]


def test_split_fields_marks_skipped_lines():
    chunk = "a\tb\n# c\td\n\n \t \n\u3000\nétoile\tf\n# last".encode("utf-8")
    fields = split_fields(chunk, 2, lambda line: line.startswith("#") or line.isspace(), 10)
    assert fields.skipped == [
        (11, "# c\td\n"), (12, "\n"), (13, " \t \n"), (14, "\u3000\n"), (16, "# last\n")
    ]
    assert _split(fields) == [(10, ["a", "b"]), (15, ["étoile", "f"])]
    assert fields.misfit is None and fields.next_line == 17


def _text_mode_split(chunk, count, first):
    """The numbered fields of the data lines of ``chunk`` as text mode
    reads them, up to the first line without ``count`` fields, and that
    line's ``(number, field count)``."""
    rows = []
    for number, line in enumerate(text_lines(chunk), start=first):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != count:
            return rows, (number, len(fields))
        rows.append((number, fields))
    return rows, None


@pytest.mark.parametrize(
    "chunk",
    [b"a\tb\r\n", b"a\tb\rc\td\n", b"a\t\x00\n", b"a\t\xff\n", b"a\tb\tc\n", b"ab\n",
     b"a\tb\nc\n", "é\t".encode("utf-8")[:1] + b"\tb\n"],
)
def test_split_fields_leaves_what_it_cannot_prove_to_python(chunk):
    """Odd chunks split as text mode reads them: ``\\r`` as universal
    newlines, NUL kept, bytes that are not UTF-8 rejected, and a line
    without the fields asked for reported with its number and field
    count."""
    try:
        want_rows, want_misfit = _text_mode_split(chunk, 2, 7)
    except UnicodeDecodeError:
        with pytest.raises(UnicodeDecodeError):
            split_fields(chunk, 2, _never, 7)
        return
    fields = split_fields(chunk, 2, _never, 7)
    assert _split(fields) == want_rows
    assert fields.misfit == want_misfit
    assert fields.next_line == 7 + len(text_lines(chunk))


def test_split_fields_reports_the_first_misfit_after_skipped_lines():
    chunk = b"# c\na\tb\n\nc\td\te\nf\n"
    fields = split_fields(chunk, 2, lambda line: line.startswith("#") or line.isspace(), 1)
    assert _split(fields) == [(2, ["a", "b"])]
    assert fields.misfit == (4, 3)
    assert [number for number, _ in fields.skipped] == [1, 3]


@pytest.mark.parametrize("size", [1, 5, 64, 1 << 20])
def test_byte_chunks_end_at_newlines_and_rebuild_the_file(tmp_path, size):
    data = b"".join(b"line %d\r\n" % i if i % 7 else b"x" * i + b"\n" for i in range(200))
    path = tmp_path / "f.txt"
    path.write_bytes(data + b"no newline")
    chunks = list(byte_chunks(path, size))
    assert b"".join(chunks) == path.read_bytes()
    assert all(c.endswith(b"\n") for c in chunks[:-1])
    # the chunks split into the file's own text-mode lines
    with open(path, encoding="utf-8") as fh:
        assert [line for c in chunks for line in text_lines(c)] == list(fh)


@pytest.mark.parametrize("size", [1, 2, 5, 64])
def test_byte_chunks_end_at_lone_carriage_returns_too(tmp_path, size):
    ends = [b"\r"] * 8 + [b"\r\n", b"\n"]
    data = b"".join(b"line %d" % i + ends[i % len(ends)] for i in range(200)) + b"\r"
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    chunks = list(byte_chunks(path, size))
    # a chunk holds at most ``size`` bytes and the rest of a line of at most 10
    assert len(chunks) >= len(data) / (size + 10)
    assert b"".join(chunks) == data
    # no chunk ends inside a \r\n pair, nor between a line end and its line
    assert all(c.endswith((b"\r", b"\n")) for c in chunks)
    assert not any(c.endswith(b"\r") and n.startswith(b"\n") for c, n in zip(chunks, chunks[1:]))
    with open(path, encoding="utf-8") as fh:
        assert [line for c in chunks for line in text_lines(c)] == list(fh)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(min_size=0, max_size=80).filter(lambda t: "\t" not in t and "\n" not in t
                                                       and "\r" not in t and "\x00" not in t),
             min_size=0, max_size=30, unique=True),
    st.lists(st.text(max_size=10).filter(lambda t: not set(t) & set("\t\n\r\x00")), max_size=10),
)
def test_label_index_finds_what_a_dict_finds(labels, others):
    known = labels + ["#x", "a" * 64, "é" * 32, "b" * 65, "c\x00", "c"]
    known = list(dict.fromkeys(known))
    index = LabelIndex(known)
    by_label = {label: i for i, label in enumerate(known)}
    queries = [q for q in known if "\x00" not in q] + others + ["", "a" * 63, "a" * 65]
    found = index.find(_column(queries), 1).tolist()
    for query, got in zip(queries, found):
        want = by_label.get(query, -1)
        short = len(query.encode("utf-8")) <= 64
        # labels over 64 bytes are left to the caller
        assert got == (want if short else -1), query


def test_label_index_leaves_fields_holding_nul_to_python():
    # zero padding would make "q\0" and "q" one key, and "\0" the empty one
    index = LabelIndex(["q", "q\0", "\0", "ab"])
    fields = _column(["q", "q\0", "q\0x", "\0", "", "ab", "\0ab"])
    assert index.find(fields, 1).tolist() == [0, -1, -1, -1, -1, 3, -1]
