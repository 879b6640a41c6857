"""scripts/engine_steps.py: one row per engine step, and the engine untouched."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from clicksim.graph import generate_synthetic
from clicksim.simrank import SimRankParams
from clicksim.weighted import weighted_simrank

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "engine_steps.py"
engine = importlib.import_module("clicksim.simrank")


@pytest.fixture(scope="module")
def engine_steps():
    spec = importlib.util.spec_from_file_location("engine_steps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_follow_the_chain_and_the_engine_is_restored(engine_steps, capsys):
    product, cleanup = engine._blocked_product, engine._cleanup
    assert engine_steps.main(["--size", "300", "--method", "weighted"]) == 0
    assert (engine._blocked_product, engine._cleanup) == (product, cleanup)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    *steps, last = rows
    assert [row["step"] for row in steps] == list(range(1, 8))
    assert [row["side"] for row in steps] == ["query", "ad"] * 3 + ["query"]
    assert all(0 < row["kept_nnz"] <= row["product_nnz"] for row in steps)
    assert last["engine_s"] > 0 and last["peak_rss_mb"] > 0
    # the last step's kept entries are the structural iterate the evidence
    # factor scales
    graph = generate_synthetic(300, 300, 900, seed=42)
    params = SimRankParams(max_iterations=7, convergence_epsilon=0.0)
    iterate = weighted_simrank(graph, params, apply_evidence_factor=False).matrix
    assert steps[-1]["kept_nnz"] == iterate.nnz
