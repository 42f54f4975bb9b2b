"""Each demo script runs to completion against the package sources and the
retrieval demo prints what it always has, the smoke-workspace script
regenerates the bundled workspace, the scale- and retrieval-workspace
scripts write ones that validate and retrieve, and the output-comparison
script tells a changed output from an unchanged one."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ragharness.cli import main
from tests.conftest import SMOKE_WORKSPACE

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


RETRIEVAL_DEMO_OUTPUT = """\
BM25 ranking:
  c0  4.4258
  c3  0.7126

Cosine ranking:
  c0  0.9982
  c2  0.0987
  c1  -0.2487
  c3  -0.4743

RRF fusion (k=60), each score a sum of 1/(60 + rank) over the lists:
  c0  0.032787
  c3  0.031754
  c2  0.016129
  c1  0.015873

Selected context under the base regime: ['c0', 'c1']
Without the reranker: ['c0', 'c3']
"""


def test_retrieval_fusion_demo_prints_its_rankings():
    """The retrieval demo prints the same BM25, cosine and fused rankings
    and the same contexts, byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "demos" / "retrieval_fusion_demo.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == RETRIEVAL_DEMO_OUTPUT


def test_make_smoke_workspace_rebuilds_the_bundled_workspace(tmp_path, monkeypatch):
    """`scripts/make_smoke_workspace.py` writes the files of
    tests/data/smoke_workspace, byte for byte and no others."""
    path = REPO / "scripts" / "make_smoke_workspace.py"
    spec = importlib.util.spec_from_file_location("make_smoke_workspace", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    script.main()

    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    assert files(tmp_path) == files(SMOKE_WORKSPACE)


def test_make_scale_workspace_writes_a_workspace_that_validates(tmp_path, capsys):
    """`scripts/make_scale_workspace.py` writes the 22-config, five-regime
    grid; run in its own process, since it replaces a workload spec of the
    module it imports."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_scale_workspace.py"), "3", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert main(["--workspace", str(tmp_path), "validate"]) == 0
    out = capsys.readouterr().out
    assert "(1000 chunks, 3 QA rows, test=3)" in out
    assert "0 of 330 records have no judge score" in out


def test_make_scale_workspace_rejects_a_digit_int_cannot_read(tmp_path):
    """QUESTIONS "²" is a digit to str.isdigit but no integer to int(): the
    script prints its usage line and exits 1, without a traceback."""
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_scale_workspace.py"), "²", str(tmp_path)],
        capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == "usage: python3 scripts/make_scale_workspace.py QUESTIONS OUT\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("dim", [0, 8])
def test_make_retrieval_workspace_writes_a_workspace_that_retrieves(tmp_path, capsys, dim):
    """`scripts/make_retrieval_workspace.py` writes 50 chunks and 10
    questions that validate and retrieve: at DIM 0 one sparse_only regime
    and no embeddings, otherwise the five variants over both channels."""
    done = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "make_retrieval_workspace.py"),
            "50", "10", str(dim), str(tmp_path),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "embeddings.json").exists() == bool(dim)
    assert main(["--workspace", str(tmp_path), "validate"]) == 0
    assert "(50 chunks, 10 QA rows, test=10)" in capsys.readouterr().out
    assert main(["--workspace", str(tmp_path), "retrieve"]) == 0
    dense, fusions, regimes = (10, 10, 5) if dim else (0, 0, 1)
    assert (
        f"retrieve: scored 10 sparse and {dense} dense lists and ran {fusions} fusions "
        "for 10 test questions"
    ) in capsys.readouterr().out
    contexts = sorted((tmp_path / "out").glob("contexts_*.jsonl"))
    assert len(contexts) == regimes
    assert all(len(path.read_text("utf-8").splitlines()) == 10 for path in contexts)


def load_compare_outputs():
    path = REPO / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_compare_outputs_finds_a_changed_csv_cell(tmp_path):
    """`scripts/compare_outputs.py` finds no difference between two runs of
    one source tree on the smoke workspace, and finds the CSV files of a copy
    whose `report._cell` writes 5 significant digits instead of 6."""
    script = load_compare_outputs()
    changed = tmp_path / "changed"
    shutil.copytree(REPO / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    report = changed / "ragharness" / "report.py"
    text = report.read_text(encoding="utf-8")
    assert text.count('f"{value:.6g}"') == 1
    report.write_text(text.replace('f"{value:.6g}"', 'f"{value:.5g}"'), encoding="utf-8")
    workspace = tmp_path / "ws"
    shutil.copytree(SMOKE_WORKSPACE, workspace)

    parent, found = script.compare(REPO / "src", REPO / "src", workspace)
    assert found == []
    assert parent["pareto --axes latency,training_time"][0] == 1
    assert all(code == 0 for code, *_ in list(parent.values())[:-1])
    found = script.differences(parent, script.outputs(changed, workspace))
    assert "stats: out/stats_01_base__neutral.csv differs" in found
    assert "report: out/ablation_summary.csv differs" in found
    assert not any(line.startswith(("validate", "retrieve", "score")) for line in found)


def test_compare_outputs_faults_stop_validate_and_retrieve(tmp_path, capsys):
    """Each smoke copy of `scripts/compare_outputs.py`'s FAULTS makes
    validate and retrieve exit 1 with a one-line error; a fault in the cost
    profiles, which retrieve does not read, stops validate alone."""
    script = load_compare_outputs()
    for name, edits in script.FAULTS.items():
        workspace = tmp_path / name
        shutil.copytree(SMOKE_WORKSPACE, workspace)
        for file_name, edit in edits.items():
            script.edit_json(workspace / file_name, edit)
        for command in ("validate", "retrieve"):
            code = main(["--workspace", str(workspace), command])
            err = capsys.readouterr().err
            if command == "retrieve" and "costs.jsonl" in edits:
                assert code == 0 and not err, (name, err)
                continue
            assert code == 1, (name, command)
            assert err.startswith(f"{command}: ") and err.count("\n") == 1, (name, err)
