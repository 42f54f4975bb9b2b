"""Each demo script runs to completion against the package sources, and the
smoke-workspace script regenerates the bundled workspace and the
scale-workspace script writes one that validates."""

import importlib.util
import os
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
