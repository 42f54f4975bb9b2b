"""Self-tests of the benchmark: generator determinism, traced counts on the
smoke workspace, failure counting, and the span arithmetic.

Run with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import bench
import workloads


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    first = _tree_bytes(workloads.generate(name, 3, tmp_path / "a"))
    assert first == _tree_bytes(workloads.generate(name, 3, tmp_path / "b"))
    other = _tree_bytes(workloads.generate(name, 4, tmp_path / "c"))
    assert other.keys() == first.keys()
    assert other["corpus.jsonl"] != first["corpus.jsonl"]
    manifest = json.loads(first["runs/manifest.json"])
    for entry in manifest["files"]:
        assert hashlib.sha256(first[f"runs/{entry['path']}"]).hexdigest() == entry["sha256"]


def test_ragged_coverage_varies_by_regime_not_within_a_regime(tmp_path):
    root = workloads.generate("ragged_coverage", 5, tmp_path / "ws")
    covered = {}
    for path in (root / "runs").glob("*.jsonl"):
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        covered.setdefault(rows[0]["regime"], set()).add(frozenset(r["qa_id"] for r in rows))
    assert all(len(sets) == 1 for sets in covered.values())
    assert len({len(next(iter(sets))) for sets in covered.values()}) == len(covered)


def test_smoke_traced_counts_match_inputs(tmp_path):
    workspace = shutil.copytree(bench.SMOKE, tmp_path / "smoke", ignore=shutil.ignore_patterns("out"))
    reference = dict(bench.load_reference("smoke"))
    results = bench.run_pass(workspace, reference, trace=True)
    assert [inv.detail for inv in results if not inv.ok] == []
    spans = {inv.name: inv.spans for inv in results}
    config = json.loads((workspace / "workspace.json").read_text(encoding="utf-8"))
    questions = len((workspace / "qa.jsonl").read_text(encoding="utf-8").splitlines())
    records = bench.workspace_counts(workspace)["records"]
    assert records == 4 * 30
    assert bench.calls(spans["score"], "metrics.token_f1") == records
    for channel in ("retrieval.score_sparse", "retrieval.score_dense"):
        assert bench.calls(spans["retrieve"], channel) == questions * len(config["regimes"])
    # One bootstrap interval per (config, metric) in each table-building command.
    for sub in ("stats", "pareto", "report"):
        assert bench.calls(spans[sub], "stats.bootstrap_ci") == 4 * 3
    assert bench.calls(spans["stats"], "stats.paired_bootstrap_delta") == 1


def test_failures_are_counted_not_raised(tmp_path):
    workspace = shutil.copytree(bench.SMOKE, tmp_path / "smoke", ignore=shutil.ignore_patterns("out"))
    run_file = next((workspace / "runs").glob("*.jsonl"))
    run_file.write_text(run_file.read_text(encoding="utf-8") + "\n{}\n", encoding="utf-8")
    reference = dict(bench.load_reference("smoke"))
    reference["retrieve"] = "0" * 64
    results = {inv.name: inv for inv in bench.run_pass(workspace, reference)}
    assert not results["retrieve"].ok and "digest" in results["retrieve"].detail
    for sub in ("validate", "score", "stats", "pareto", "report"):
        assert not results[sub].ok
        assert results[sub].exit_code == 1 and "checksum mismatch" in results[sub].detail


def test_span_arithmetic():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["report.regime_table", 1.0, 6.0, 0, None],
        ["stats.bootstrap_ci", 2.0, 4.0, 1, None],
        ["stats.bootstrap_ci", 7.0, 8.0, 0, None],
    ]
    assert bench.self_times(spans) == [4.0, 3.0, 2.0, 1.0]
    assert bench.inclusive(spans, ["stats.bootstrap_ci"]) == 3.0
    assert bench.inclusive(spans, ["report.regime_table", "stats.bootstrap_ci"]) == 6.0


def test_summary_gives_a_tail_only_with_ten_samples_beyond_it():
    assert set(bench.summarize(range(99))) == {"median", "n"}
    assert "p90" in bench.summarize(range(100))
    assert "p99" in bench.summarize(range(1000))


def test_benchmark_process_stays_small():
    # A child's ru_maxrss starts from its parent's peak RSS, so the process
    # that spawns the timed commands must not load numpy or the package.
    code = "import sys; sys.path.insert(0, 'perfbench'); import bench; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=bench.ROOT, capture_output=True, text=True, check=True
    ).stdout
    assert "'numpy'" not in out and "'ragharness'" not in out
