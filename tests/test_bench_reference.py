"""The benchmark's workloads keep their recorded output bytes: each workload
generated at seed 0 runs the six commands, each in a fresh process, and
every command's out/ digest must equal the one `perfbench/reference` holds
for that seed."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("grid_analysis", "retrieval_heavy", "ragged_coverage")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", PERFBENCH / "bench.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_seed_0_matches_its_reference(bench, tmp_path, workload):
    reference = bench.load_reference(workload)["0"]
    workspace = bench.prepare(tmp_path, workload, 0)
    results = bench.run_pass(workspace, dict(reference))
    assert [inv.name for inv in results] == [argv[0] for argv in bench.SUBCOMMANDS]
    assert sorted(reference) == sorted(inv.name for inv in results)
    failed = [f"{inv.name}: {inv.detail}" for inv in results if not inv.ok]
    assert not failed, failed
