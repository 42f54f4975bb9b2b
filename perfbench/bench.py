"""Benchmark of the ragharness CLI over generated workspaces.

    python3 perfbench/bench.py --workload grid_analysis --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. The benchmark generates the
workload's workspace from the seed (see workloads.py), then acts as one user
in a closed loop: it runs validate, retrieve, score, stats, pareto and report
one after another, each in a fresh ``python -m ragharness.cli`` process, so no
module-level cache carries over between commands. It repeats whole passes
for ``--seconds`` seconds and compares every invocation's ``out/`` files with
the digests recorded at the seed commit (perfbench/reference/). A non-zero
exit or a digest mismatch counts as a failure, never as an exception.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (a fresh interpreter
importing the CLI and running the workspace-free ``grid`` command), the wall
time of each subcommand, ``pipeline_s`` (their sum over one pass) and
``peak_rss_mb`` (the largest peak RSS of any subcommand process, read per
child with ``os.wait4``). ``--trace 1`` alternates untraced passes with passes
run under tracer.py and reports the per-layer metrics and the tracing
overhead. Before timing, the committed smoke workspace is run once, untimed,
as an output check.

End-to-end times are reported at a reference host speed. Before each
untraced pass the benchmark times calibrate.py, fixed work that shares no
code with ragharness, and multiplies every measured time by
``CALIBRATION_REF_S`` over the run's median calibration time (see
speed_factor). The tables show the raw medians next to the scaled ones.

Human-readable tables go to standard output first: every metric with its
unit, median and sample count, plus ``error_rate``, the share of invocations
that failed. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; failures are carried by
``failed``/``attempted`` there, since ``metrics`` holds no metric that can
read zero.

``--workload all`` runs every workload in turn. ``--record-reference`` writes
the reference digests and must only be run at the seed commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"  # generated workspaces, logs and spans; removed after each run
REFERENCE = HERE / "reference"
SMOKE = ROOT / "tests" / "data" / "smoke_workspace"
SUBCOMMANDS = (
    ("validate",),
    ("retrieve",),
    ("score",),
    ("stats",),
    ("pareto", "--axes", "latency,inference_vram"),
    ("report",),
)
SETUP_ARGV = ("grid",)
SETUP_SAMPLES_BEFORE = 2
INVOCATION_TIMEOUT_S = 120.0
# Median wall time of calibrate.py on the reference host, a 2-vCPU Xeon VM.
# End-to-end times are reported at that host speed; see speed_factor.
CALIBRATION_REF_S = 0.17

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    *((f"{sub[0]}_s", "s") for sub in SUBCOMMANDS),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("stats.bootstrap_ci_s", "s"),
    ("stats.bootstrap_ci_calls", "count"),
    ("stats.delta_s", "s"),
    ("stats.replicates", "count"),
    ("stats.index_reuse_ratio", "ratio"),
    ("metrics.token_f1_s", "s"),
    ("metrics.token_f1_calls", "count"),
    ("metrics.f1_calls_per_record", "ratio"),
    ("report.regime_table_calls", "count"),
    ("report.regime_table_self_s", "s"),
    ("report.emit_s", "s"),
    ("pareto.front_s", "s"),
    ("pareto.front_calls", "count"),
    ("retrieval.score_dense_s", "s"),
    ("retrieval.score_dense_calls", "count"),
    ("retrieval.score_sparse_s", "s"),
    ("retrieval.score_sparse_calls", "count"),
    ("retrieval.index_build_s", "s"),
    ("retrieval.select_s", "s"),
    ("retrieval.channel_scores_per_question", "ratio"),
    ("ingest.load_runs_s", "s"),
    ("ingest.attach_judge_s", "s"),
    ("ingest.loads_per_pass", "count"),
    ("dataset.load_s", "s"),
    *((f"cli.self_s.{sub[0]}", "s") for sub in SUBCOMMANDS),
    *((f"{module}.self_s", "s") for module in tracer.MODULES),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a checkout, missing reference)."""


@dataclass
class Invocation:
    name: str  # subcommand, "grid" for set-up samples, "calibrate"
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    ok: bool = False
    detail: str = ""
    spans: list | None = None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RAGHARNESS_WORKSPACE", None)
    return env


def cli_command(argv, spans_path: Path | None = None) -> list:
    """Command line of one CLI call; with `spans_path` it runs under tracer.py,
    which writes its spans there."""
    if spans_path is None:
        return [sys.executable, "-m", "ragharness.cli", *argv]
    return [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv]


def invoke(name: str, cmd: list, work: Path) -> Invocation:
    """Run one command in a fresh interpreter and reap it with wait4.

    Wall time covers process start to exit. Peak RSS is this child's, but
    Linux starts a child's ru_maxrss from the parent's peak RSS at spawn, so
    the benchmark process keeps its own peak below any CLI command's (it
    never imports numpy or the package) and reports it next to the result.
    """
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "stdout.log", "wb") as out, open(work / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(name, wall, usage.ru_maxrss / 1024.0, proc.returncode)
    if proc.returncode != 0:
        lines = (work / "stderr.log").read_text(encoding="utf-8", errors="replace").splitlines()
        inv.detail = f"exit {proc.returncode}: {lines[-1] if lines else ''}"
    return inv


def out_digest(out_dir: Path) -> str:
    """sha256 over the sorted (name, sha256) list of every file under `out_dir`."""
    digest = hashlib.sha256()
    if out_dir.exists():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            file_sha = hashlib.sha256(path.read_bytes()).hexdigest()
            digest.update(f"{path.relative_to(out_dir).as_posix()}\0{file_sha}\n".encode())
    return digest.hexdigest()


def speed_factor(calibration_s: float) -> float:
    """Scale from this host's current speed to the reference host's.

    The shared hosts this runs on change speed by 15-35% over a minute or
    two, which moves every command alike. A run's median calibrate.py time
    measures that drift, and multiplying each measured time by this factor
    takes it out, so runs at different moments agree.
    """
    return CALIBRATION_REF_S / calibration_s


def calibrate(work: Path) -> float:
    """Wall time of one calibrate.py run, a sample of the host's current speed."""
    inv = invoke("calibrate", [sys.executable, str(HERE / "calibrate.py")], work)
    if inv.exit_code != 0:
        raise BenchError(f"calibrate.py failed: {inv.detail}")
    return inv.wall_s


def run_pass(workspace: Path, reference: dict, trace: bool = False) -> list:
    """One closed-loop pass over the six subcommands.

    `reference` maps subcommand name to the expected out/ digest; a name it
    lacks is filled in from this pass. Each command starts from an empty
    out/ so its digest covers exactly the files it wrote. Logs and spans go
    next to the workspace.
    """
    work = workspace.parent
    results = []
    for argv in SUBCOMMANDS:
        name = argv[0]
        shutil.rmtree(workspace / "out", ignore_errors=True)
        spans_path = work / f"spans_{name}.json" if trace else None
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
        inv = invoke(name, cli_command(("--workspace", str(workspace), *argv), spans_path), work)
        digest = out_digest(workspace / "out")
        expected = reference.setdefault(name, digest)
        if inv.exit_code == 0 and digest != expected:
            inv.detail = f"out/ digest {digest[:12]} != reference {expected[:12]}"
        inv.ok = inv.exit_code == 0 and digest == expected
        if spans_path is not None and spans_path.exists():
            inv.spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        results.append(inv)
    shutil.rmtree(workspace / "out", ignore_errors=True)
    return results


def summarize(values) -> dict:
    """Median, sample count, and the highest of p90/p95/p99 with at least
    ten samples beyond it."""
    values = list(values)
    n = len(values)
    summary = {"median": statistics.median(values), "n": n}
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            summary[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            break
    return summary


# ---------------------------------------------------------------- workspaces


def check_checkout() -> None:
    if not (ROOT / "src" / "ragharness" / "cli.py").is_file():
        raise BenchError(f"no ragharness sources under {ROOT / 'src'}; run from a checkout")
    if not (SMOKE / "workspace.json").is_file():
        raise BenchError(f"smoke workspace missing: {SMOKE}")


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"reference digests missing: {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def prepare(work: Path, workload: str, seed: int) -> Path:
    """Generate the workspace in a child process, keeping numpy out of this one."""
    workspace = work / f"{workload}-{seed}"
    shutil.rmtree(workspace, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(workspace)],
        check=True,
    )
    return workspace


def copy_smoke(work: Path) -> Path:
    dest = work / "smoke"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(SMOKE, dest, ignore=shutil.ignore_patterns("out"))
    return dest


def smoke_check(work: Path) -> list:
    """Run the committed smoke workspace once, untimed; return failed invocations."""
    workspace = copy_smoke(work)
    try:
        results = run_pass(workspace, load_reference("smoke"))
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    return [inv for inv in results if not inv.ok]


def workspace_counts(workspace: Path) -> dict:
    """Record and test-question counts the per-layer ratios are taken against."""
    config = json.loads((workspace / "workspace.json").read_text(encoding="utf-8"))
    runs = workspace / config["runs"]
    manifest = json.loads((runs / "manifest.json").read_text(encoding="utf-8"))
    records = sum(
        len((runs / entry["path"]).read_text(encoding="utf-8").splitlines())
        for entry in manifest["files"]
    )
    questions = sum(
        1 for line in (workspace / config["qa"]).read_text(encoding="utf-8").splitlines()
        if json.loads(line)["split"] == "test"
    )
    return {"records": records, "questions": questions, "resamples": config["resamples"]}


# -------------------------------------------------------------- span algebra


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def inclusive(spans, names) -> float:
    """Total duration of spans named in `names` that no other such span encloses."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def calls(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def layer_metrics(pass_results: list, counts: dict) -> dict:
    """Per-layer metrics of one traced pass from its spans, by subcommand."""
    by_sub = {inv.name: inv.spans or [] for inv in pass_results}
    every = [s for spans in by_sub.values() for s in spans]
    m = {}
    bootstrap = ("stats.bootstrap_ci", "stats.paired_bootstrap_delta", "stats.pooled_pair_delta")
    m["stats.bootstrap_ci_s"] = sum(inclusive(s, ["stats.bootstrap_ci"]) for s in by_sub.values())
    m["stats.bootstrap_ci_calls"] = calls(every, "stats.bootstrap_ci")
    m["stats.delta_s"] = sum(inclusive(s, bootstrap[1:]) for s in by_sub.values())
    boot_calls = sum(calls(every, name) for name in bootstrap)
    m["stats.replicates"] = boot_calls * counts["resamples"]
    # A resample-index cache lives in one process, so keys are distinct per command.
    distinct = sum(
        len({tuple(s[4]) for s in spans if s[0] in bootstrap}) for spans in by_sub.values()
    )
    m["stats.index_reuse_ratio"] = 1.0 - distinct / boot_calls if boot_calls else 0.0
    m["metrics.token_f1_s"] = sum(inclusive(s, ["metrics.token_f1"]) for s in by_sub.values())
    m["metrics.token_f1_calls"] = calls(every, "metrics.token_f1")
    m["metrics.f1_calls_per_record"] = m["metrics.token_f1_calls"] / counts["records"]
    m["report.regime_table_calls"] = calls(every, "report.regime_table")
    m["report.emit_s"] = sum(
        inclusive(s, ["report.emit_front_data", "report.format_regime_table"])
        for s in by_sub.values()
    )
    m["pareto.front_s"] = sum(inclusive(s, ["pareto.pareto_front"]) for s in by_sub.values())
    m["pareto.front_calls"] = calls(every, "pareto.pareto_front")
    for channel in ("dense", "sparse"):
        name = f"retrieval.score_{channel}"
        m[f"{name}_s"] = sum(inclusive(s, [name]) for s in by_sub.values())
        m[f"{name}_calls"] = calls(every, name)
    m["retrieval.index_build_s"] = sum(
        inclusive(s, ["retrieval.build_sparse_index"]) for s in by_sub.values()
    )
    m["retrieval.select_s"] = sum(
        inclusive(s, ["retrieval.select_context", "retrieval.fuse_rrf"]) for s in by_sub.values()
    )
    channel_calls = calls(by_sub["retrieve"], "retrieval.score_sparse") + calls(
        by_sub["retrieve"], "retrieval.score_dense"
    )
    m["retrieval.channel_scores_per_question"] = channel_calls / counts["questions"]
    m["ingest.load_runs_s"] = sum(inclusive(s, ["ingest.load_runs"]) for s in by_sub.values())
    m["ingest.attach_judge_s"] = sum(
        inclusive(s, ["ingest.attach_judge_scores"]) for s in by_sub.values()
    )
    m["ingest.loads_per_pass"] = calls(every, "ingest.load_runs")
    m["dataset.load_s"] = sum(
        inclusive(s, ["dataset.load_corpus", "dataset.load_qa"]) for s in by_sub.values()
    )
    module_self = {name: 0.0 for name, _ in PER_LAYER if name.endswith(".self_s")}
    regime_self = 0.0
    for sub, spans in by_sub.items():
        own = self_times(spans)
        cli_self = 0.0
        for span, t in zip(spans, own):
            module = span[0].split(".", 1)[0]
            module_self[f"{module}.self_s"] += t
            if module == "cli":
                cli_self += t
            if span[0] == "report.regime_table":
                regime_self += t
        m[f"cli.self_s.{sub}"] = cli_self
    m["report.regime_table_self_s"] = regime_self
    m.update(module_self)
    return m


def top_self(pass_results: list, limit: int = 3) -> dict:
    """Per subcommand, the functions with the largest total self time."""
    table = {}
    for inv in pass_results:
        totals: dict = {}
        for span, t in zip(inv.spans or [], self_times(inv.spans or [])):
            totals[span[0]] = totals.get(span[0], 0.0) + t
        table[inv.name] = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return table


# ------------------------------------------------------------------ running


def timed_passes(workspace: Path, reference: dict, seconds: float, trace: bool) -> dict:
    """Closed loop of whole passes until the next pass would overrun `seconds`.

    Each untraced pass follows a setup sample and sits between two
    calibrations. With `trace`, untraced and traced passes alternate, so the
    overhead compares like with like.
    """
    work = workspace.parent
    calibrations = []

    def setup_sample():
        calibrations.append(calibrate(work))
        return invoke("grid", cli_command(SETUP_ARGV), work)

    setup = [setup_sample() for _ in range(SETUP_SAMPLES_BEFORE)]
    plain, traced = [], []
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            traced.append(run_pass(workspace, reference, trace=True))
        else:
            setup.append(setup_sample())
            plain.append(run_pass(workspace, reference))
            calibrations.append(calibrate(work))
        durations.append(time.perf_counter() - t0)
        done = plain and (traced or not trace)
        if done and time.perf_counter() - start + max(durations) > seconds:
            break
    return {"setup": setup, "plain": plain, "traced": traced, "calibrations": calibrations}


def run_workload(work: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    references = load_reference(workload)
    reference = dict(references.get(str(seed), {}))
    note = "seed-commit reference" if reference else (
        f"no seed-commit reference for seed {seed}; outputs checked against the first pass"
    )
    smoke_failures = smoke_check(work)
    workspace = prepare(work, workload, seed)
    try:
        counts = workspace_counts(workspace)
        runs = timed_passes(workspace, reference, seconds, trace)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    invocations = [inv for p in runs["plain"] + runs["traced"] for inv in p]
    failures = [inv for inv in invocations if not inv.ok]
    setup_failures = [inv for inv in runs["setup"] if inv.exit_code != 0]
    pipelines = [sum(inv.wall_s for inv in p) for p in runs["plain"]]
    plain = [inv for p in runs["plain"] for inv in p]
    # name -> (unit, samples, sample count); peak_rss_mb and error_rate are
    # single values taken over every invocation.
    table = {
        "setup_s": ("s", [inv.wall_s for inv in runs["setup"]], len(runs["setup"])),
        **{
            f"{sub[0]}_s": ("s", [p[i].wall_s for p in runs["plain"]], len(runs["plain"]))
            for i, sub in enumerate(SUBCOMMANDS)
        },
        "pipeline_s": ("s", pipelines, len(pipelines)),
        "peak_rss_mb": ("MB", [max(inv.peak_rss_mb for inv in plain)], len(plain)),
        "error_rate": ("ratio", [len(failures) / len(invocations)], len(invocations)),
    }
    if trace:
        # Parsing spans raised this process's peak, which every later child inherits.
        del table["peak_rss_mb"]
    calibration = statistics.median(runs["calibrations"])
    factor = speed_factor(calibration)
    lines = [
        f"workload {workload}  seed {seed}  passes {len(runs['plain'])} untraced, "
        f"{len(runs['traced'])} traced  ({note})",
        f"  {'metric':<40}{'unit':<7}{'median':>10}{'raw':>10}{'n':>6}  tail",
    ]
    for name, (unit, values, n) in table.items():
        s = summarize(values)
        scale = factor if unit == "s" else 1.0
        tail = "  ".join(f"{k} {v * scale:.4f}" for k, v in s.items() if k.startswith("p"))
        lines.append(
            f"  {name:<40}{unit:<7}{s['median'] * scale:>10.4f}{s['median']:>10.4f}{n:>6}  {tail}"
        )
    lines.append(
        f"  (times are raw x {factor:.4f}: calibrate.py took {calibration:.4f} s here, "
        f"{CALIBRATION_REF_S} s on the reference host; {len(runs['calibrations'])} samples)"
    )
    if not trace:
        own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(f"  (peak RSS of this benchmark process, a floor on peak_rss_mb: {own_peak_mb:.1f} MB)")
        metrics = {
            name: {
                "value": statistics.median(table[name][1]) * (factor if unit == "s" else 1.0),
                "unit": unit,
            }
            for name, unit in END_TO_END
        }
    else:
        per_pass = [layer_metrics(p, counts) for p in runs["traced"]]
        traced_pipeline = statistics.median(sum(inv.wall_s for inv in p) for p in runs["traced"])
        overhead = traced_pipeline / statistics.median(pipelines) - 1.0
        metrics = {}
        lines.append(f"  {'per-layer metric (median per pass)':<40}{'unit':<7}{'median':>12}{'n':>6}")
        for name, unit in PER_LAYER:
            values = [overhead] if name == "trace.overhead_ratio" else [m[name] for m in per_pass]
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<40}{unit:<7}{value:>12.4f}{len(values):>6}")
        lines.append("  largest self time per subcommand (last traced pass):")
        for sub, top in top_self(runs["traced"][-1]).items():
            lines.append(f"    {sub:<9}" + "  ".join(f"{n} {t:.3f}s" for n, t in top))
    for inv in smoke_failures:
        lines.append(f"  FAILED smoke {inv.name}: {inv.detail}")
    for inv in failures + setup_failures:
        lines.append(f"  FAILED {inv.name}: {inv.detail}")
    return {
        "lines": lines,
        "result": {
            "correct": not failures and not smoke_failures and not setup_failures,
            "attempted": len(invocations),
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def record_reference(work: Path, workload_names, seeds) -> None:
    """Write perfbench/reference/<name>.json from this commit's outputs."""
    REFERENCE.mkdir(exist_ok=True)
    workspace = copy_smoke(work)
    smoke = {}
    results = run_pass(workspace, smoke)
    shutil.rmtree(workspace, ignore_errors=True)
    if not all(inv.exit_code == 0 for inv in results):
        raise BenchError("smoke workspace failed at this commit")
    (REFERENCE / "smoke.json").write_text(
        json.dumps(smoke, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name in workload_names:
        table = {}
        for seed in seeds:
            workspace = prepare(work, name, seed)
            digests = {}
            results = run_pass(workspace, digests)
            shutil.rmtree(workspace, ignore_errors=True)
            bad = [inv.detail for inv in results if inv.exit_code != 0]
            if bad:
                raise BenchError(f"{name} seed {seed} failed at this commit: {bad}")
            table[str(seed)] = digests
            print(f"reference {name} seed {seed}", flush=True)
        path = REFERENCE / f"{name}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", metavar="SEEDS",
        help="write reference digests for seeds LO-HI of --workload (seed commit only)",
    )
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"run-{os.getpid()}"
    try:
        check_checkout()
        if args.record_reference:
            record_reference(work, names, _seed_range(args.record_reference))
            return 0
        results = {}
        for name in names:
            run = run_workload(work, name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(run["lines"]), flush=True)
            results[name] = run["result"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
