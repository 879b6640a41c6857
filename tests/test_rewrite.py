"""Rewrite normalization, ranking, filtering, coverage, and persistence."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clicksim import rewrite
from clicksim.baselines import common_ad_scores, pearson_scores
from clicksim.evidence import EvidenceKind, apply_evidence
from clicksim.graph import ClickGraph, generate_synthetic, query_node
from clicksim.rewrite import (
    BidTermList,
    RewriteList,
    coverage,
    depth_histogram,
    normalize_query,
    printed_scores,
    read_rewrites,
    top_rewrites,
    write_rewrites,
)
from clicksim.simrank import SimRankParams, printed_score, simrank
from scipy import sparse
from clicksim.simrank import SimilarityScores


def test_normalize_folds_case_space_and_plurals():
    assert normalize_query("Digital  Cameras") == normalize_query("digital camera")
    assert normalize_query("") == ""
    assert normalize_query("FLOWERS") == "flower"


def test_normalize_suffix_rules():
    assert normalize_query("ladies") == "lady"
    assert normalize_query("glasses") == "glass"
    assert normalize_query("boxes") == "box"
    assert normalize_query("jumped") == "jump"
    assert normalize_query("running") == "runn"  # rule chain, not a dictionary
    assert normalize_query("bus") == "bus"
    assert normalize_query("is") == "is"


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    once = normalize_query(text)
    assert normalize_query(once) == once


def _score_table(labels, entries):
    """Symmetric score matrix from {(a, b): score} label pairs."""
    index = {lab: i for i, lab in enumerate(labels)}
    rows, cols, vals = [], [], []
    for (a, b), v in entries.items():
        rows += [index[a], index[b]]
        cols += [index[b], index[a]]
        vals += [v, v]
    return SimilarityScores(
        query_labels=tuple(labels),
        matrix=sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(labels), len(labels))
        ),
        iterations_run=1,
        converged=True,
        method="simple",
    )


def exact_params(k=50):
    return SimRankParams(
        max_iterations=k, convergence_epsilon=1e-12, min_score_threshold=0.0
    )


def test_demo_pc_rewrites_ranked(demo):
    scores = simrank(demo, exact_params())
    lst = top_rewrites(scores, demo.query_id("pc"))
    labels = [r for r, _ in lst.rewrites]
    # camera and digital camera tie, so label order decides; tv trails
    assert labels == ["camera", "digital camera", "tv"]
    assert lst.rewrites[0][1] == pytest.approx(0.619, abs=0.005)
    assert lst.rewrites[1][1] == pytest.approx(lst.rewrites[0][1], abs=1e-12)
    assert lst.rewrites[2][1] == pytest.approx(0.437, abs=0.005)
    assert lst.query == "pc"


def test_rewrites_require_query_node(demo):
    scores = simrank(demo, exact_params())
    with pytest.raises(ValueError, match="query nodes"):
        top_rewrites(scores, demo.ad_id("hp.com"))


def test_caps_must_be_positive(demo):
    scores = simrank(demo, exact_params())
    q = demo.query_id("pc")
    with pytest.raises(ValueError, match="caps"):
        top_rewrites(scores, q, candidate_cap=0)
    with pytest.raises(ValueError, match="caps"):
        top_rewrites(scores, q, final_cap=0)


def test_final_cap_truncates(demo):
    scores = simrank(demo, exact_params())
    lst = top_rewrites(scores, demo.query_id("pc"), final_cap=1)
    assert lst.depth == 1
    assert lst.rewrites[0][0] == "camera"


def test_candidate_cap_applies_before_dedup():
    # the duplicate occupies one of the two candidate slots, so after
    # folding only a single rewrite survives even though final_cap is 5
    table = _score_table(
        ["base", "hat", "hats", "cap"],
        {("base", "hat"): 0.9, ("base", "hats"): 0.8, ("base", "cap"): 0.7},
    )
    lst = top_rewrites(table, query_node(0), candidate_cap=2, final_cap=5)
    assert [r for r, _ in lst.rewrites] == ["hat"]


def test_duplicate_forms_keep_best_ranked():
    table = _score_table(
        ["base", "hats", "hat", "cap"],
        {("base", "hats"): 0.9, ("base", "hat"): 0.8, ("base", "cap"): 0.5},
    )
    lst = top_rewrites(table, query_node(0))
    assert [r for r, _ in lst.rewrites] == ["hats", "cap"]


def test_own_normalized_form_is_dropped():
    table = _score_table(
        ["flower", "flowers", "rose"],
        {("flower", "flowers"): 0.9, ("flower", "rose"): 0.4},
    )
    lst = top_rewrites(table, query_node(0))
    assert [r for r, _ in lst.rewrites] == ["rose"]


def test_non_positive_scores_never_rewrite():
    table = _score_table(
        ["base", "anti", "flat"],
        {("base", "anti"): -0.8, ("base", "flat"): 0.0},
    )
    lst = top_rewrites(table, query_node(0))
    assert lst.rewrites == ()


def test_bid_filtering(tmp_path, demo):
    scores = simrank(demo, exact_params())
    bid_file = tmp_path / "bids.txt"
    bid_file.write_text("# bids\nTV\n\ndigital  CAMERA\n")
    bids = BidTermList.load(bid_file)
    assert "tv" in bids and "Digital Camera" in bids and "camera" not in bids
    lst = top_rewrites(scores, demo.query_id("pc"), bids=bids)
    assert [r for r, _ in lst.rewrites] == ["digital camera", "tv"]
    empty = BidTermList(terms=frozenset())
    assert top_rewrites(scores, demo.query_id("pc"), bids=empty).rewrites == ()


def test_rewrites_are_deterministic(demo):
    scores = simrank(demo, exact_params())
    a = top_rewrites(scores, demo.query_id("camera"))
    b = top_rewrites(scores, demo.query_id("camera"))
    assert a == b


def _reference_rewrites(scores, query, candidate_cap=100, final_cap=5, bids=None):
    """The ranking rule written out: a full sort of the row on the scores
    as a dump prints them, then label; the top ``candidate_cap`` folded."""

    def printed(v):
        return float(f"{v:.6f}")

    label = scores.query_labels[query.index]
    row = scores.matrix.getrow(query.index)
    ranked = sorted(
        (
            (scores.query_labels[j], float(v))
            for j, v in zip(row.indices, row.data)
            if printed(v) > 0.0
        ),
        key=lambda item: (-printed(item[1]), item[0]),
    )[:candidate_cap]
    own_form = normalize_query(label)
    seen, kept = set(), []
    for cand, score in ranked:
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


@pytest.fixture(scope="module")
def ranking_tables():
    """A seeded table whose rows exceed the default candidate cap, the same
    table on a coarse grid (exact ties at every cut-off), and on a finer
    grid jittered by less than half a printed step (scores that differ in
    memory but print equal, and tiny scores that print as zero)."""
    graph = generate_synthetic(300, 300, 900, seed=0)
    exact = simrank(graph, SimRankParams(max_iterations=7, convergence_epsilon=0.0))
    assert (np.diff(exact.matrix.indptr) > 100).sum() > 100
    rng = np.random.default_rng(5)
    tables = {"exact": exact}
    for name, decimals, jitter in (("coarse", 2, 0.0), ("jittered", 3, 4e-7)):
        matrix = exact.matrix.copy()
        matrix.data = np.round(matrix.data, decimals) + rng.uniform(
            -jitter, jitter, matrix.data.size
        )
        tables[name] = SimilarityScores(
            query_labels=exact.query_labels, matrix=matrix,
            iterations_run=7, converged=False, method="simple",
        )
    return tables


@pytest.mark.parametrize("table", ["exact", "coarse", "jittered"])
@pytest.mark.parametrize(
    "candidate_cap, final_cap", [(1, 1), (2, 5), (3, 2), (10, 5), (100, 5), (500, 500)]
)
@pytest.mark.parametrize("with_bids", [False, True])
def test_ranking_matches_a_full_sort(
    ranking_tables, table, candidate_cap, final_cap, with_bids
):
    scores = ranking_tables[table]
    bids = None
    if with_bids:
        bids = BidTermList(terms=frozenset(scores.query_labels[::3]))
    for i in range(len(scores.query_labels)):
        got = top_rewrites(scores, query_node(i), candidate_cap, final_cap, bids)
        want = _reference_rewrites(scores, query_node(i), candidate_cap, final_cap, bids)
        assert got == want, i


def test_ranking_uses_printed_scores():
    # b and c print equal, so the label decides, although c is larger in
    # memory; d prints as zero and is no candidate
    table = _score_table(
        ["a", "b", "c", "d"],
        {("a", "b"): 0.25, ("a", "c"): 0.25 + 1e-9, ("a", "d"): 4e-7},
    )
    lst = top_rewrites(table, query_node(0))
    assert lst.rewrites == (("b", 0.25), ("c", 0.25 + 1e-9))
    lst = top_rewrites(table, query_node(0), candidate_cap=1)
    assert lst.rewrites == (("b", 0.25),)


def _assert_ranks_like_the_reference(scores, candidate_cap=100, final_cap=5, bids=None):
    for i in range(len(scores.query_labels)):
        got = top_rewrites(scores, query_node(i), candidate_cap, final_cap, bids)
        want = _reference_rewrites(scores, query_node(i), candidate_cap, final_cap, bids)
        assert got == want, i


# a printed score has 6 decimals, so its ties |v| * 1e6 = j + 1/2 are the
# odd multiples of 2**-7 = 0.0078125; other dyadic values come close
_DYADIC = st.builds(
    lambda odd, k: (2 * odd + 1) * 2.0**-k,
    st.integers(0, 2**20),
    st.integers(1, 60),
)
_NEAR_TIES = st.builds(
    lambda v, step: float(np.nextafter(v, step * np.inf)) if step else v,
    _DYADIC,
    st.sampled_from([-1, 0, 1]),
)
_COUNTS = st.integers(2**20, 2**62).map(float)
_SCORES = st.builds(
    lambda v, negative: -v if negative else v,
    st.one_of(st.floats(), _NEAR_TIES, _COUNTS),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCORES, max_size=40))
def test_bulk_printed_scores_equal_printed_score(values):
    got = printed_scores(np.array(values, dtype=np.float64))
    want = np.array([printed_score(v) for v in values], dtype=np.float64)
    # bit for bit: signed zeros and nan included
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_bulk_printed_scores_at_ties_and_their_neighbours():
    ties = np.array([0.0078125, 3 * 0.0078125, 0.5 + 0.0078125, 2.0**-27, 2.0**20 + 0.0078125])
    values = np.concatenate(
        [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)]
    )
    values = np.concatenate([values, -values, [2.0**21 + 1, 2.0**40, 0.0, -0.0]])
    want = np.array([printed_score(v) for v in values.tolist()])
    assert printed_scores(values).view(np.int64).tolist() == want.view(np.int64).tolist()
    assert printed_scores(np.array([3, -2, 2**21])).tolist() == [3.0, -2.0, 2.0**21]


def test_ranking_is_kept_until_the_matrix_is_replaced():
    graph = generate_synthetic(300, 300, 900, seed=3)
    scores = simrank(graph, SimRankParams(max_iterations=5, convergence_epsilon=0.0))
    before = [top_rewrites(scores, q) for q in graph.queries()]
    ranking = scores._ranking
    top_rewrites(scores, query_node(0))
    assert scores._ranking is ranking
    # as evidence scoring does after ranking the plain table
    scores.matrix = apply_evidence(
        scores.matrix, graph, EvidenceKind.GEOMETRIC, scores.min_score_threshold
    )
    after = [top_rewrites(scores, q) for q in graph.queries()]
    assert after != before
    _assert_ranks_like_the_reference(scores)


def test_other_caps_and_bids_are_ranked_afresh(ranking_tables):
    scores = ranking_tables["coarse"]
    bids = BidTermList(terms=frozenset(scores.query_labels[::2]))
    for candidate_cap, final_cap, chosen in (
        (100, 5, None), (2, 5, None), (2, 1, None), (2, 1, bids),
        (2, 1, BidTermList(terms=frozenset(scores.query_labels[1::2]))), (100, 5, None),
    ):
        _assert_ranks_like_the_reference(scores, candidate_cap, final_cap, chosen)


@pytest.mark.parametrize("build", [common_ad_scores, pearson_scores])
@pytest.mark.parametrize("candidate_cap, final_cap", [(1, 1), (3, 2), (100, 5)])
def test_baseline_tables_rank_like_a_full_sort(build, candidate_cap, final_cap):
    scores = build(generate_synthetic(300, 300, 1500, seed=4))
    assert (np.diff(scores.matrix.indptr) > 3).sum() > 50
    bids = BidTermList(terms=frozenset(scores.query_labels[::3]))
    _assert_ranks_like_the_reference(scores, candidate_cap, final_cap)
    _assert_ranks_like_the_reference(scores, candidate_cap, final_cap, bids)


@pytest.mark.parametrize("chunk", [257, 1 << 16])
@pytest.mark.parametrize("scale", [1.0, 2.0**28, 2.0**31])
def test_ranking_in_any_chunks_and_at_any_score_size(
    ranking_tables, monkeypatch, chunk, scale
):
    # small chunks split the table and its long rows' groups; large
    # scores leave no room for one sort key over a whole chunk (2**28),
    # or for exact micro-units (2**31)
    monkeypatch.setattr(rewrite, "_RANK_CHUNK_ENTRIES", chunk)
    exact = ranking_tables["coarse"]
    scores = SimilarityScores(
        query_labels=exact.query_labels, matrix=exact.matrix * scale,
        iterations_run=7, converged=False, method="common",
    )
    _assert_ranks_like_the_reference(scores, 10, 5)
    _assert_ranks_like_the_reference(scores, 150, 3)


def test_folding_across_table_chunks(monkeypatch):
    monkeypatch.setattr(rewrite, "_RANK_CHUNK_ENTRIES", 4)
    labels = ["hat", "hats", "Hat", "cap", "caps", "cap s", "beret"]
    entries = {
        (a, b): 0.1 + 0.01 * ((i * 7 + j * 3) % 11)
        for i, a in enumerate(labels) for j, b in enumerate(labels) if i < j
    }
    table = _score_table(labels, entries)
    for cap in (1, 2, 3, 6):
        _assert_ranks_like_the_reference(table, cap, 5)
        _assert_ranks_like_the_reference(
            table, cap, 2, BidTermList(terms=frozenset(["hats", "caps", "beret"]))
        )


def test_coverage_fractions():
    lists = [
        RewriteList("a", (("x", 0.5),)),
        RewriteList("b", ()),
        RewriteList("c", (("y", 0.4), ("z", 0.3))),
    ]
    assert coverage(lists, ["a", "b", "c"]) == pytest.approx(2 / 3)
    assert coverage(lists, ["a", "c"]) == 1.0
    assert coverage(lists, ["b"]) == 0.0
    # sampled queries with no list at all count as uncovered
    assert coverage(lists, ["a", "unseen"]) == 0.5
    # sample labels are canonicalized before lookup
    assert coverage(lists, ["  A "]) == 1.0
    with pytest.raises(ValueError, match="empty"):
        coverage(lists, [])


def test_depth_histogram_counts():
    lists = [
        RewriteList("a", ()),
        RewriteList("b", tuple((f"r{i}", 0.5) for i in range(5))),
        RewriteList("c", tuple((f"r{i}", 0.5) for i in range(5))),
        RewriteList("d", tuple((f"r{i}", 0.5) for i in range(3))),
    ]
    hist = depth_histogram(lists, max_depth=5)
    assert hist == {0: 0.25, 3: 0.25, 5: 0.5}
    assert sum(hist.values()) == pytest.approx(1.0)
    assert list(hist) == sorted(hist)
    with pytest.raises(ValueError, match="deeper"):
        depth_histogram(lists, max_depth=4)
    with pytest.raises(ValueError, match="no rewrite lists"):
        depth_histogram([], max_depth=5)


def test_rewrite_file_round_trip(tmp_path, demo):
    scores = simrank(demo, exact_params())
    lists = [
        top_rewrites(scores, demo.query_id(lab)) for lab in demo.query_labels
    ]
    path = tmp_path / "rewrites.tsv"
    write_rewrites(lists, path)
    text = path.read_text()
    assert "pc\t1\tcamera\t0.6" in text
    loaded = read_rewrites(path)
    by_query = {lst.query: lst for lst in loaded}
    for lst in lists:
        if not lst.rewrites:
            assert lst.query not in by_query
            continue
        got = by_query[lst.query]
        assert [r for r, _ in got.rewrites] == [r for r, _ in lst.rewrites]
        for (_, a), (_, b) in zip(got.rewrites, lst.rewrites):
            assert a == pytest.approx(b, abs=5e-7)


def test_rewrite_writer_refuses_query_labels_read_back_as_comments(tmp_path):
    # '#promo' is a query the graph takes and the ranking serves, but
    # its lines would read back as comments and vanish
    graph = ClickGraph.from_records(
        [(q, "ad", 1, 1, 1.0) for q in ("sale", "#promo", "deals")]
    )
    scores = simrank(graph, SimRankParams(max_iterations=2))
    lists = [top_rewrites(scores, query) for query in graph.queries()]
    assert [lst.query for lst in lists if lst.rewrites] == ["sale", "#promo", "deals"]
    path = tmp_path / "rewrites.tsv"
    with pytest.raises(ValueError, match="'#promo' starts with '#'"):
        write_rewrites(lists, path)
    assert not path.exists()
    out = io.StringIO()
    with pytest.raises(ValueError, match="'#promo'"):
        write_rewrites(iter(lists), out)
    assert out.getvalue() == ""
    # a '#' on a rewrite, or on a query without rewrites, writes no comment
    fine = [RewriteList("sale", (("#promo", 0.5),)), RewriteList("#promo", ())]
    write_rewrites(fine, path)
    assert read_rewrites(path) == fine[:1]


def test_read_rewrites_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q\t1\tr\n")
    with pytest.raises(ValueError, match="expected 4 fields"):
        read_rewrites(bad)
    bad.write_text("q\tone\tr\t0.5\n")
    with pytest.raises(ValueError, match="bad rank or score"):
        read_rewrites(bad)
    bad.write_text("q\t1\tr\t0.5\nq\t3\ts\t0.4\n")
    with pytest.raises(ValueError, match="non-contiguous"):
        read_rewrites(bad)


def test_read_rewrites_rejects_a_query_split_across_the_file(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q1\t1\tr1\t0.5\nq2\t1\tr2\t0.4\n# note\nq1\t2\tr3\t0.3\n")
    with pytest.raises(ValueError, match=r"bad.tsv:4: lines of query 'q1' are split"):
        read_rewrites(bad)


def test_read_rewrites_rejects_a_rewrite_listed_twice(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("q1\t1\tq2\t0.5\nq1\t2\tq2\t0.4\n")
    with pytest.raises(ValueError, match=r"bad.tsv:2: rewrite 'q2' listed twice for query 'q1'"):
        read_rewrites(bad)


@pytest.mark.parametrize(
    "text, line",
    [
        ("q\t1\tr\t0.5\nq\t3\ts\t0.4\n", 2),
        ("q\t2\tr\t0.5\nq\t3\ts\t0.4\n", 1),
        ("q\t1\tr\t0.5\n\nq\t1\ts\t0.4\n", 3),
        ("p\t1\tr\t0.5\nq\t2\tr\t0.5\nq\t1\ts\t0.4\nq\t2\tt\t0.4\n", 4),
    ],
)
def test_read_rewrites_names_the_line_of_a_rank_out_of_sequence(tmp_path, text, line):
    bad = tmp_path / "bad.tsv"
    bad.write_text(text)
    with pytest.raises(ValueError, match=rf"bad.tsv:{line}: non-contiguous ranks for query 'q'"):
        read_rewrites(bad)


def test_read_rewrites_takes_ranks_in_any_order(tmp_path):
    path = tmp_path / "rewrites.tsv"
    path.write_text("q\t2\ts\t0.4\nq\t1\tr\t0.5\n")
    assert read_rewrites(path) == [RewriteList("q", (("r", 0.5), ("s", 0.4)))]
