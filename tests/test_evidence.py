"""Common-neighbor evidence scores and the evidence-scaled engine."""

import itertools
import math

import pytest

from clicksim.evidence import (
    EvidenceKind,
    common_neighbor_counts,
    evidence_score,
    evidence_simrank,
)
from clicksim.graph import complete_bipartite
from clicksim.oracles import closed_form_evidence_k22
from clicksim.simrank import Method, SimRankParams, simrank
from conftest import sim_by_label

EVIDENCE_SEQ = [0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808]


@pytest.mark.parametrize(
    "count,expected",
    [(0, 0.0), (1, 0.5), (2, 0.75), (3, 0.875), (10, 1 - 2**-10)],
)
def test_geometric_evidence_values(count, expected):
    assert evidence_score(count) == pytest.approx(expected, abs=0)


def test_exponential_evidence_values():
    assert evidence_score(0, EvidenceKind.EXPONENTIAL) == 0.0
    assert evidence_score(1, EvidenceKind.EXPONENTIAL) == pytest.approx(
        1 - math.exp(-1), abs=1e-12
    )


def test_evidence_strictly_increases_toward_one():
    for kind in EvidenceKind:
        values = [evidence_score(n, kind) for n in range(12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0
        assert evidence_score(80, kind) == pytest.approx(1.0, abs=1e-12)


def test_evidence_score_matches_the_scalar_forms():
    # the curve is shared with the bulk evidence factor, which evaluates
    # it with numpy; it must give the scalar formulas' exact values
    for n in range(2000):
        assert evidence_score(n) == 1.0 - 2.0 ** -n
        assert evidence_score(n, EvidenceKind.EXPONENTIAL) == -math.expm1(-n)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        evidence_score(-1)


def test_common_neighbor_counts_on_demo(demo):
    counts = common_neighbor_counts(demo)
    idx = {label: i for i, label in enumerate(demo.query_labels)}
    assert counts[idx["camera"], idx["digital camera"]] == 2
    assert counts[idx["pc"], idx["camera"]] == 1
    assert counts[idx["pc"], idx["tv"]] == 0
    assert counts[idx["pc"], idx["flower"]] == 0


def exact_params(k):
    return SimRankParams(
        max_iterations=k, convergence_epsilon=0.0, min_score_threshold=0.0
    )


@pytest.mark.parametrize("k,expected", list(enumerate(EVIDENCE_SEQ, start=1)))
def test_two_ad_pair_reference_sequence(k, expected):
    g = complete_bipartite(num_ads=2, num_queries=2, weight=0.1)
    scores = evidence_simrank(g, exact_params(k))
    assert sim_by_label(scores, "q0", "q1") == pytest.approx(expected, abs=1e-7)
    assert scores.method == Method.EVIDENCE.value


@pytest.mark.parametrize("k", [1, 3, 7])
def test_one_ad_pair_is_flat(k):
    g = complete_bipartite(num_ads=1, num_queries=2, weight=0.1)
    scores = evidence_simrank(g, exact_params(k))
    assert sim_by_label(scores, "q0", "q1") == pytest.approx(0.4, abs=1e-12)


def test_matches_evidence_closed_form_to_1e12():
    g = complete_bipartite(num_ads=2, num_queries=2, weight=0.1)
    for c1, c2 in itertools.product([0.5, 0.6, 0.8, 1.0], repeat=2):
        for k in (1, 2, 5, 30):
            params = SimRankParams(
                c1=c1, c2=c2, max_iterations=k,
                convergence_epsilon=0.0, min_score_threshold=0.0,
            )
            got = sim_by_label(evidence_simrank(g, params), "q0", "q1")
            assert got == pytest.approx(
                closed_form_evidence_k22(c1, c2, k), abs=1e-12
            )


def test_never_exceeds_plain_scores(demo):
    plain = simrank(demo, exact_params(6))
    scaled = evidence_simrank(demo, exact_params(6))
    diff = (scaled.matrix - plain.matrix).toarray()
    assert diff.max() <= 1e-15


def test_zero_common_ads_zeroes_the_pair(demo):
    # pc and tv share no ads, so however strong the structural score,
    # the evidence-scaled one vanishes
    plain = simrank(demo, exact_params(6))
    scaled = evidence_simrank(demo, exact_params(6))
    assert sim_by_label(plain, "pc", "tv") > 0.0
    assert sim_by_label(scaled, "pc", "tv") == 0.0


def test_exponential_kind_scales_by_its_own_factor(demo):
    plain = simrank(demo, exact_params(4))
    scaled = evidence_simrank(demo, exact_params(4), EvidenceKind.EXPONENTIAL)
    factor = 1 - math.exp(-2)
    assert sim_by_label(scaled, "camera", "digital camera") == pytest.approx(
        factor * sim_by_label(plain, "camera", "digital camera"), abs=1e-12
    )
