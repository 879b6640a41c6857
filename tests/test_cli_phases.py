"""scripts/cli_phases.py: its work directory and its failure messages."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_phases.py"
SRC = str(SCRIPT.parents[1] / "src")


@pytest.fixture(scope="module")
def cli_phases():
    spec = importlib.util.spec_from_file_location("cli_phases", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failing_command_is_named_with_its_stderr(cli_phases, tmp_path):
    missing = tmp_path / "missing.tsv"
    with pytest.raises(RuntimeError) as caught:
        cli_phases.run(SRC, "compute", "--graph", str(missing))
    message = str(caught.value)
    assert f"clicksim compute --graph {missing} exited with status 1" in message
    assert "missing.tsv" in message.splitlines()[-1]


def test_a_missing_workdir_is_made(cli_phases, tmp_path, capsys):
    workdir = tmp_path / "not" / "there"
    assert cli_phases.main(["--size", "40", "--workdir", str(workdir)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["command"] for row in rows] == [
        "generate",
        "compute simple",
        "rewrite --scores simple",
        "compute weighted",
        "rewrite --scores weighted",
    ]
    assert (workdir / "graph-40.tsv").exists()
    assert (workdir / "rewrites-40-weighted.tsv").exists()
