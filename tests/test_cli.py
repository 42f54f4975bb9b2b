import csv
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ragharness import analysis, cli, ingest, metrics, retrieval
from ragharness.analysis import load_workspace
from ragharness.cli import main
from ragharness.ingest import Run, RunSet
from ragharness.report import RegimeRow
from tests.conftest import SMOKE_WORKSPACE, file_checksum, refresh_dataset_checksums

QV = "3B r8 qv_only"
FULL = "3B r4 full_attention"


@pytest.fixture()
def workspace(tmp_path):
    dest = tmp_path / "ws"
    shutil.copytree(SMOKE_WORKSPACE, dest)
    return dest


def run(workspace, *argv):
    return main(["--workspace", str(workspace), *argv])


def run_file(workspace, config):
    return workspace / "runs" / f"{config.replace(' ', '_')}__01_base__neutral.jsonl"


def read_run(workspace, config):
    text = run_file(workspace, config).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def write_run(workspace, config, records):
    """Write a config's run file and record its checksum in the manifest."""
    path = run_file(workspace, config)
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    record_checksum(workspace, path)


def record_checksum(workspace, path):
    """Record the sha256 of the run file at `path` in the manifest."""
    manifest_path = workspace / "runs" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = {e["path"]: e for e in manifest["files"]}
    files[path.name] = {"path": path.name, "sha256": file_checksum(path)}
    manifest["files"] = list(files.values())
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def one_line_error(capsys, command):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"{command}: ")
    return err


def test_unknown_subcommand_exits_2(workspace, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--workspace", str(workspace), "frobnicate"])
    assert excinfo.value.code == 2


def test_validate_ok(workspace, capsys):
    assert run(workspace, "validate") == 0
    assert "validate: ok" in capsys.readouterr().out


def test_validate_reports_judge_coverage(workspace, capsys):
    judge = workspace / "judge.jsonl"
    rows = judge.read_text(encoding="utf-8").splitlines()
    stray = json.dumps({"config": "8B baseline", "regime": "01_base__neutral",
                        "qa_id": "qa000", "correctness": 3, "groundedness": 3})
    judge.write_text("\n".join(rows[1:] + [stray]) + "\n", encoding="utf-8")
    assert run(workspace, "validate") == 0
    out = capsys.readouterr().out
    assert "1 judge rows match no record, 1 of 120 records have no judge score" in out
    assert not (workspace / "out").exists()


def test_stats_scores_each_record_once(workspace, monkeypatch):
    calls = []
    token_f1 = metrics.token_f1
    for name, module in list(sys.modules.items()):
        if name.startswith("ragharness") and getattr(module, "token_f1", None) is token_f1:
            monkeypatch.setattr(module, "token_f1", lambda *a: calls.append(a) or token_f1(*a))
    assert run(workspace, "stats") == 0
    assert len(calls) == 4 * 30


def test_one_analysis_loads_the_run_set_once(workspace, monkeypatch):
    """An Analysis serving the tables, the param-matched alignment and the
    error labels, each checked against the run set, loads it once."""
    _labels(LABEL)(workspace)
    calls, load_runs = [], ingest.load_runs
    monkeypatch.setattr(
        ingest, "load_runs", lambda *a, **kw: calls.append(a) or load_runs(*a, **kw)
    )
    an = analysis.Analysis(load_workspace(workspace))
    assert an.tables and an.matched and an.labels
    assert len(calls) == 1


def test_validate_empty_workspace(tmp_path, capsys):
    (tmp_path / "workspace.json").write_text("{}", encoding="utf-8")
    assert main(["--workspace", str(tmp_path), "validate"]) == 1
    assert capsys.readouterr().err == f"validate: corpus not found: {tmp_path / 'corpus.jsonl'}\n"


def test_validate_missing_workspace_config(tmp_path, capsys):
    assert main(["--workspace", str(tmp_path), "validate"]) == 1
    assert "workspace config not found" in capsys.readouterr().err


def test_workspace_env_fallback(workspace, monkeypatch, capsys):
    monkeypatch.setenv("RAGHARNESS_WORKSPACE", str(workspace))
    assert main(["validate"]) == 0


def test_workspace_config_defaults(workspace):
    ws = load_workspace(workspace)
    assert ws.eval_top_k == 2
    assert ws.k_rrf == 60.0
    assert ws.plan().n_resamples == 1000
    # WorkspaceConfig's default is the one fuse_rrf takes from retrieval.
    assert analysis.WorkspaceConfig(workspace).k_rrf == retrieval.DEFAULT_K_RRF
    # Every path and knob of a workspace.json that gives none, in the order
    # they are resolved and checked.
    assert list(vars(analysis.WorkspaceConfig(workspace)).items()) == [
        ("root", workspace), ("corpus", workspace / "corpus.jsonl"),
        ("qa", workspace / "qa.jsonl"), ("out", workspace / "out"), ("embeddings", None),
        ("rerank_scores", None), ("runs", None), ("judge_scores", None), ("costs", None),
        ("labels", None), ("retrieve_top_n", 20), ("eval_top_k", 2), ("k_rrf", 60.0),
        ("resamples", 1000), ("level", 0.95), ("pass_threshold", 4), ("seed", 0),
        ("regimes", [("01_base__neutral", "base")]),
    ]
    with pytest.raises(TypeError, match="unknown fields"):
        analysis.WorkspaceConfig(workspace, top_k=2)
    for regimes in ({}, {"regimes": None}):
        (workspace / "workspace.json").write_text(json.dumps(regimes), encoding="utf-8")
        assert load_workspace(workspace).regimes == [("01_base__neutral", "base")]


def test_retrieve_writes_contexts(workspace):
    assert run(workspace, "retrieve") == 0
    out = workspace / "out" / "contexts_01_base__neutral.jsonl"
    assert out.exists()
    assert len(out.read_text(encoding="utf-8").splitlines()) == 30


def test_retrieve_counts_the_fallback_per_regime(workspace, capsys):
    """A test question without a query vector runs on BM25 alone under a
    fused regime, and one without rerank scores keeps the unreranked order;
    retrieve says how many of each there were per regime, on stdout only."""
    _edit_json("embeddings.json", lambda e: e["queries"].pop("qa000"))(workspace)
    _edit_json("rerank.json", lambda r: r.pop("qa001"))(workspace)
    regimes = [
        {"id": "base", "variant": "base"},
        {"id": "off", "variant": "reranker_off"},
        {"id": "sparse", "variant": "sparse_only"},
    ]
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes))(workspace)
    assert run(workspace, "retrieve") == 0
    out = capsys.readouterr().out
    for regime_id, variant, short, unranked in (
        ("base", "base", 1, 1), ("off", "reranker_off", 1, 0), ("sparse", "sparse_only", 0, 1)
    ):
        assert (
            f"retrieve: {regime_id}: of 30 test questions, {short} ran with fewer "
            f"channels than {variant!r} names and {unranked} without the rerank "
            f"scores it names\n"
        ) in out
    assert sorted(p.name for p in (workspace / "out").iterdir()) == [
        "contexts_base.jsonl", "contexts_off.jsonl", "contexts_sparse.jsonl"
    ]


def test_empty_rerank_map_keeps_the_unreranked_order(workspace, tmp_path):
    """A question whose rerank map is {} gets the contexts of a question the
    rerank file leaves out, under every variant."""
    regimes = [{"id": v, "variant": v} for v in retrieval.RETRIEVAL_VARIANTS]
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes))(workspace)
    left_out = tmp_path / "left_out"
    shutil.copytree(workspace, left_out)
    _edit_json("rerank.json", lambda r: r.update(qa000={}))(workspace)
    _edit_json("rerank.json", lambda r: r.pop("qa000"))(left_out)
    for ws in (workspace, left_out):
        assert run(ws, "retrieve") == 0
    for variant in retrieval.RETRIEVAL_VARIANTS:
        name = f"contexts_{variant}.jsonl"
        assert (workspace / "out" / name).read_bytes() == (left_out / "out" / name).read_bytes()


def _counting(monkeypatch, name, calls):
    """Replace retrieval.`name` with a wrapper that counts its calls."""
    original = getattr(retrieval, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(retrieval, name, counted)


def test_retrieve_scores_each_channel_once_per_question(workspace, tmp_path, monkeypatch, capsys):
    """Under all five variants, retrieve scores BM25 and the dense channel
    once per test question and fuses them once, says so on stdout, and
    writes each regime's contexts as a workspace holding that regime alone
    does; with no regime that fuses dense, it scores no dense list."""
    regimes = [{"id": v, "variant": v} for v in retrieval.RETRIEVAL_VARIANTS]
    for regime in regimes:
        alone = tmp_path / regime["id"]
        shutil.copytree(workspace, alone)
        _edit_json("workspace.json", lambda c, r=regime: c.update(regimes=[r]))(alone)
        assert run(alone, "retrieve") == 0
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes))(workspace)
    capsys.readouterr()
    calls = dict.fromkeys(("score_sparse", "score_dense", "fuse_rrf"), 0)
    for name in calls:
        _counting(monkeypatch, name, calls)
    assert run(workspace, "retrieve") == 0
    assert calls == {"score_sparse": 30, "score_dense": 30, "fuse_rrf": 30}
    out = capsys.readouterr().out
    assert (
        "retrieve: scored 30 sparse and 30 dense lists and ran 30 fusions "
        "for 30 test questions\n"
    ) in out
    for regime in regimes:
        name = f"contexts_{regime['id']}.jsonl"
        alone = tmp_path / regime["id"] / "out" / name
        assert (workspace / "out" / name).read_bytes() == alone.read_bytes(), name

    sparse_only = [{"id": "s", "variant": "sparse_only"}]
    _edit_json("workspace.json", lambda c: c.update(regimes=sparse_only))(workspace)
    calls.update(dict.fromkeys(calls, 0))
    assert run(workspace, "retrieve") == 0
    assert calls == {"score_sparse": 30, "score_dense": 0, "fuse_rrf": 0}
    assert "scored 30 sparse and 0 dense lists and ran 0 fusions" in capsys.readouterr().out


def test_retrieve_indexes_for_the_test_questions_in_qa_file_order(workspace, monkeypatch):
    """retrieve builds its BM25 index for exactly the test-split questions,
    in the order of the QA file, which here is not qa_id order."""

    def reorder(rows):
        rows.reverse()
        for row in rows[::3]:
            row["split"] = "train"

    _edit_rows("qa.jsonl", reorder)(workspace)
    refresh_dataset_checksums(workspace)
    rows = [json.loads(line) for line in (workspace / "qa.jsonl").read_text("utf-8").splitlines()]
    asked = []
    original = retrieval.build_sparse_index

    def recording(corpus, queries):
        asked.append(list(queries))
        return original(corpus, queries)

    monkeypatch.setattr(retrieval, "build_sparse_index", recording)
    assert run(workspace, "retrieve") == 0
    want = [row["question"] for row in rows if row["split"] == "test"]
    assert asked == [want] and len(want) == 20


def test_score_writes_per_example_metrics(workspace):
    assert run(workspace, "score") == 0
    lines = (workspace / "out" / "scores.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 120  # 4 configs x 30 questions


def test_score_lines_equal_json_dumps():
    """Each line of scores.jsonl, built from the columns, is the line
    json.dumps(row, sort_keys=True) gives, ids with non-ASCII, quotes and
    control characters and odd latencies included, in (regime, config,
    qa_id) order."""
    rng = random.Random(1313)
    alphabet = ["a", "Z", "7", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
                "é", "€", "\u2028", "\U0001f600", "\ud800"]

    def ident():
        return "".join(rng.choices(alphabet, k=rng.randint(0, 5)))

    runs, expected = {}, []
    for _ in range(12):
        config, regime = ident(), ident()
        if config in runs.get(regime, {}):
            continue
        qa_ids = list(dict.fromkeys(ident() for _ in range(rng.randint(1, 9))))
        latencies = [
            rng.choice([1, 1.0, 1e-7, 123456789.0, 0.0, rng.random(), rng.expovariate(1e-3)])
            for _ in qa_ids
        ]
        f1s = [rng.choice([0.0, 1.0, 1 / 3, 2 / 3, rng.random()]) for _ in qa_ids]
        exact = [rng.random() < 0.5 for _ in qa_ids]
        runs.setdefault(regime, {})[config] = Run(
            config, regime, 2, qa_ids=qa_ids, latencies=latencies, f1s=f1s, exact=exact
        )
        expected += [
            {"config": config, "regime": regime, "qa_id": q, "f1": round(f1, 6),
             "em": int(em), "latency_s": latency}
            for q, f1, em, latency in zip(qa_ids, f1s, exact, latencies)
        ]
    expected.sort(key=lambda r: (r["regime"], r["config"], r["qa_id"]))
    # RunSet.runs holds both levels in ascending id order.
    runs = {regime: dict(sorted(runs[regime].items())) for regime in sorted(runs)}
    lines = list(cli._score_lines(RunSet(runs=runs)))
    assert lines == [json.dumps(row, sort_keys=True) + "\n" for row in expected]


def test_stats_writes_tables_and_deltas(workspace):
    assert run(workspace, "stats") == 0
    assert (workspace / "out" / "stats_01_base__neutral.csv").exists()
    deltas = (workspace / "out" / "param_matched.csv").read_text(encoding="utf-8")
    assert "3B r8 qv_only" in deltas and "3B r4 full_attention" in deltas


def test_regime_csv_columns_are_the_regime_row_fields(workspace):
    """stats_<regime>.csv and regime_<regime>.csv have one column per
    RegimeRow field, in field order."""
    assert run(workspace, "stats") == 0
    assert run(workspace, "report") == 0
    columns = list(RegimeRow._fields)
    for name in ("stats_01_base__neutral.csv", "regime_01_base__neutral.csv"):
        with open(workspace / "out" / name, encoding="utf-8", newline="") as fh:
            assert next(csv.reader(fh)) == columns


def test_pareto_rejects_unknown_axis(workspace, capsys):
    assert run(workspace, "pareto", "--axes", "carbon") == 1
    assert "unknown cost axis" in capsys.readouterr().err


def test_pareto_front_file(workspace):
    assert run(workspace, "pareto", "--regime", "01_base__neutral") == 0
    front = workspace / "out" / "front_01_base__neutral_latency.csv"
    lines = front.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "config,regime,quality,latency,on_front"
    assert len(lines) == 5  # header + 4 configs


def test_report_outputs(workspace):
    assert run(workspace, "report") == 0
    out = workspace / "out"
    assert (out / "regime_01_base__neutral.csv").exists()
    assert (out / "regime_01_base__neutral.txt").exists()
    assert (out / "ablation_summary.csv").exists()
    assert (out / "scheme_wins.json").exists()


def test_grid_listing(capsys):
    assert main(["grid", "--ranks", "4,8,16,32,64", "--bases", "3B,8B"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if line and not line.startswith(("base", "param", " "))]
    assert len(body) == 22
    assert "8B r64 qv_only" in out
    assert "128" in out  # alpha column for r64
    assert "param-matched pairs (8):" in out


def test_grid_listing_keeps_the_order_of_its_arguments(capsys):
    """Configs and pairs list in the order --bases and --ranks give them."""
    assert main(["grid", "--bases", "8B,3B", "--ranks", "8,4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "base  scheme          rank  alpha config",
        "8B    baseline                    8B baseline",
        "8B    qv_only         8     16    8B r8 qv_only",
        "8B    full_attention  8     16    8B r8 full_attention",
        "8B    qv_only         4     8     8B r4 qv_only",
        "8B    full_attention  4     8     8B r4 full_attention",
        "3B    baseline                    3B baseline",
        "3B    qv_only         8     16    3B r8 qv_only",
        "3B    full_attention  8     16    3B r8 full_attention",
        "3B    qv_only         4     8     3B r4 qv_only",
        "3B    full_attention  4     8     3B r4 full_attention",
        "",
        "param-matched pairs (2):",
        "  32d   8B r8 qv_only  <->  8B r4 full_attention",
        "  32d   3B r8 qv_only  <->  3B r4 full_attention",
    ]


def test_grid_ranks_may_have_spaces_around_each_item(capsys):
    assert main(["grid", "--bases", "3B", "--ranks", "4,8"]) == 0
    plain = capsys.readouterr().out
    assert main(["grid", "--bases", "3B", "--ranks", " 4 ,\t8 "]) == 0
    assert capsys.readouterr().out == plain


def test_grid_listing_base_column_fits_the_longest_base(capsys):
    assert main(["grid", "--ranks", "4", "--bases", "3B,8B"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "base  scheme          rank  alpha config",
        "3B    baseline                    3B baseline",
    ]
    assert main(["grid", "--ranks", "4", "--bases", "Llama3B,8B"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("base     scheme ")
    assert lines[3] == "Llama3B  full_attention  4     8     Llama3B r4 full_attention"
    assert lines[4].startswith("8B       baseline ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ranks", "0"], "rank must be positive, got 0"),
        (["--ranks", "a"], "--ranks must be integers, got 'a'"),
        (["--ranks", "4,4"], "duplicate grid cell ('3B', 4, 'qv_only')"),
        (["--bases", ","], "base model name must be nonempty"),
        (["--bases", "Llama 3B"], "base model name must hold no whitespace, got 'Llama 3B'"),
        (["--bases", "3B", "--ranks", "9" * 4300], "rank must have at most 100 digits"),
        (["--ranks", "1_6, 8"], "--ranks must be integers, got '1_6, 8'"),
        (["--ranks", "\u0661\u0666"], "--ranks must be integers, got '\u0661\u0666'"),
        (["--ranks", "4,\u00b2"], "--ranks must be integers, got '4,\u00b2'"),
        (["--ranks", "+4"], "--ranks must be integers, got '+4'"),
        (["--ranks", "-4"], "--ranks must be integers, got '-4'"),
        (["--ranks", "4,,8"], "--ranks must be integers, got '4,,8'"),
        (["--ranks", ""], "--ranks must be integers, got ''"),
        (["--ranks", "9" * 4301], "--ranks must be integers, got '" + "9" * 4301 + "'"),
    ],
    ids=[
        "rank_zero", "rank_not_an_integer", "rank_repeated", "base_empty", "base_with_space",
        "rank_4300_digits", "rank_underscore", "rank_arabic_indic_digits", "rank_superscript",
        "rank_plus_sign", "rank_negative", "rank_empty_item", "rank_empty", "rank_4301_digits",
    ],
)
def test_grid_bad_arguments_exit_1_with_one_line(capsys, argv, message):
    assert main(["grid", *argv]) == 1
    assert message in one_line_error(capsys, "grid")
    assert capsys.readouterr().out == ""


def test_idempotent_outputs(workspace):
    for cmd in (["retrieve"], ["score"], ["stats"], ["pareto"], ["report"]):
        assert run(workspace, *cmd) == 0
    snapshot = {
        p.name: p.read_bytes() for p in sorted((workspace / "out").iterdir())
    }
    for cmd in (["retrieve"], ["score"], ["stats"], ["pareto"], ["report"]):
        assert run(workspace, *cmd) == 0
    for p in sorted((workspace / "out").iterdir()):
        assert p.read_bytes() == snapshot[p.name], p.name


def test_report_labels_follow_knobs(workspace):
    path = workspace / "workspace.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    config.update(level=0.9, pass_threshold=3, resamples=50)
    path.write_text(json.dumps(config), encoding="utf-8")
    assert run(workspace, "report") == 0
    text = (workspace / "out" / "regime_01_base__neutral.txt").read_text(encoding="utf-8")
    header = text.splitlines()[0].split()
    assert header[:9] == ["config", "F1", "F1", "90%", "CI", "grnd@3", "corr@3", "lat", "(s)"]


def _drop(dropped):
    """Drop, from each config's run, the record of the qa_id `dropped` maps it to."""

    def write(workspace):
        for config, qa_id in dropped.items():
            records = read_run(workspace, config)
            write_run(workspace, config, [r for r in records if r["qa_id"] != qa_id])

    return write


def _second_pair_without_qa000(workspace):
    """A second pair (3B r16 qv_only, 3B r8 full_attention) that lacks qa000."""
    for source, config in ((QV, "3B r16 qv_only"), (FULL, "3B r8 full_attention")):
        records = [dict(r, config=config) for r in read_run(workspace, source)]
        write_run(workspace, config, [r for r in records if r["qa_id"] != "qa000"])


@pytest.mark.parametrize(
    "dropped", [{QV: "qa000", FULL: "qa001"}, {QV: "qa000"}], ids=["same_size", "other_size"]
)
def test_param_matched_rejects_unaligned_coverage(workspace, capsys, dropped):
    _drop(dropped)(workspace)
    assert run(workspace, "stats") == 1
    err = one_line_error(capsys, "stats")
    assert "'01_base__neutral'" in err and QV in err and FULL in err
    assert not (workspace / "out").exists()


def test_pairing_does_not_depend_on_record_order(workspace, tmp_path):
    reversed_ws = tmp_path / "reversed"
    shutil.copytree(workspace, reversed_ws)
    write_run(reversed_ws, QV, read_run(reversed_ws, QV)[::-1])
    for ws in (workspace, reversed_ws):
        assert run(ws, "score") == 0
        assert run(ws, "stats") == 0
    for name in ("param_matched.csv", "scores.jsonl"):
        assert (reversed_ws / "out" / name).read_bytes() == (workspace / "out" / name).read_bytes()


def test_param_matched_rejects_pooling_unaligned_pairs(workspace, capsys):
    _second_pair_without_qa000(workspace)
    assert run(workspace, "stats") == 1
    assert "cannot pool" in one_line_error(capsys, "stats")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize(
    "mutate",
    [_drop({QV: "qa000", FULL: "qa001"}), _drop({QV: "qa000"}), _second_pair_without_qa000],
    ids=["unaligned_same_size", "unaligned_other_size", "unaligned_pool"],
)
def test_validate_gives_the_pairing_line_of_stats(workspace, capsys, mutate):
    mutate(workspace)
    assert run(workspace, "stats") == 1
    stats_err = one_line_error(capsys, "stats")
    assert run(workspace, "validate") == 1
    assert capsys.readouterr().err == "validate: " + stats_err.removeprefix("stats: ")
    assert not (workspace / "out").exists()


def test_pareto_checks_every_cost_before_writing(workspace, capsys):
    """3B baseline loses its cost row, so it has no inference_vram: pareto
    names it, its regime and the axis, and writes no front."""
    _edit_rows("costs.jsonl", lambda rows: rows.pop(0))(workspace)
    assert run(workspace, "pareto", "--axes", "latency,inference_vram") == 1
    assert one_line_error(capsys, "pareto") == (
        "pareto: regime '01_base__neutral': config '3B baseline' has no 'inference_vram' cost\n"
    )
    assert not (workspace / "out").exists()


def test_every_regime_output_name_is_in_the_table(workspace):
    """The six commands the benchmark runs write, for the smoke workspace's
    one regime, exactly the names of analysis._REGIME_FILE_NAMES, and otherwise
    only names without a regime id, which cannot grow too long."""
    for argv in (
        ["validate"], ["retrieve"], ["score"], ["stats"],
        ["pareto", "--axes", "latency,inference_vram"], ["report"],
    ):
        assert run(workspace, *argv) == 0
    names = {path.name for path in (workspace / "out").iterdir()}
    regime_id = "01_base__neutral"
    per_regime = {name for name in names if regime_id in name}
    assert per_regime == {
        analysis._regime_file(kind, regime_id) for kind in analysis._REGIME_FILE_NAMES
    }
    assert names - per_regime == {
        "scores.jsonl", "param_matched.csv", "ablation_summary.csv", "scheme_wins.json"
    }


def _inf_latency(workspace):
    records = read_run(workspace, QV)
    records[0]["latency_s"] = float("inf")
    write_run(workspace, QV, records)


def _latencies_summing_past_floats(workspace):
    """Every latency of the 3B baseline is 1e308, finite as each value must
    be, but their sum is not."""
    write_run(
        workspace, "3B baseline",
        [dict(r, latency_s=1e308) for r in read_run(workspace, "3B baseline")],
    )


LATENCY_SUM_NOT_FINITE = (
    "(3B baseline, 01_base__neutral): latency_s values sum to more than a float holds"
)


def _long_int_literal(name):
    """Give the first row of `name` a field holding an integer literal of
    5,000 digits, more than Python converts from text by default; the
    manifest takes a run file's new checksum."""

    def write(workspace):
        path = workspace / name
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("{", '{"extra": ' + "1" * 5000 + ", ", 1), encoding="utf-8")
        if path.parent.name == "runs":
            record_checksum(workspace, path)

    return write


LONG_INT = "Exceeds the limit (4300 digits) for integer string conversion"


def _edit_json(name, edit):
    def write(workspace):
        path = workspace / name
        data = json.loads(path.read_text(encoding="utf-8"))
        edit(data)
        path.write_text(json.dumps(data), encoding="utf-8")

    return write


def _file_text(name, text):
    def write(workspace):
        (workspace / name).write_text(text, encoding="utf-8")

    return write


def _not_utf8(name, line):
    """Put the bytes ff fe, which never start UTF-8 text, at the head of
    line `line` of `name`."""

    def write(workspace):
        path = workspace / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = b"\xff\xfe" + lines[line - 1]
        path.write_bytes(b"\n".join(lines))

    return write


def _edit_rows(name, edit):
    def write(workspace):
        path = workspace / name
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        edit(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    return write


def _first_cost(**fields):
    return _edit_rows("costs.jsonl", lambda rows: rows[0].update(fields))


def _judge_correctness(value):
    return _edit_rows("judge.jsonl", lambda rows: rows[0].update(correctness=value))


def _first_qa_support(value):
    return _edit_rows("qa.jsonl", lambda rows: rows[0].update(supporting_chunk_ids=value))


def _labels(text):
    def write(workspace):
        (workspace / "labels.jsonl").write_text(text, encoding="utf-8")
        _edit_json("workspace.json", lambda c: c.update(labels="labels.jsonl"))(workspace)

    return write


LABEL = '{"qa_id": "qa000", "config": "3B baseline", "class": "overclaiming"}\n'


def _edit_run(edit):
    def write(workspace):
        records = read_run(workspace, QV)
        edit(records[-1])
        write_run(workspace, QV, records)

    return write


def _regime_id(regime_id):
    return _edit_json("workspace.json", lambda c: c["regimes"][0].update(id=regime_id))


def _rename_config(old, new):
    """Rename config `old` to `new` in its run records and judge rows."""

    def write(workspace):
        write_run(workspace, old, [dict(r, config=new) for r in read_run(workspace, old)])
        _edit_rows(
            "judge.jsonl",
            lambda rows: [r.update(config=new) for r in rows if r["config"] == old],
        )(workspace)

    return write


# 8B r64 qv_only is the best config by F1, so report names its scheme.
_config_id_without_scheme = _rename_config("8B r64 qv_only", "custom-8b")
# A param-matched pair whose ranks have 4,300 digits, too many for a config id.
HUGE_QV = "3B r" + "8" * 4300 + " qv_only"
HUGE_FULL = "3B r" + "4" * 4300 + " full_attention"


def _embedding(table, vid, edit):
    return _edit_json("embeddings.json", lambda e: edit(e[table][vid]))


def _regime_without_id(config):
    del config["regimes"][0]["id"]


def _first_regime(**fields):
    return _edit_json("workspace.json", lambda c: c["regimes"][0].update(fields))


def _dense_only_without_query_vector(workspace):
    _edit_json("embeddings.json", lambda e: e["queries"].pop("qa000"))(workspace)
    regimes = [{"id": "d", "variant": "dense_only"}]
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes))(workspace)


# Regime `a` has a name every output can take; the second one has not.
_two_regimes_one_too_long = _edit_json(
    "workspace.json",
    lambda c: c.update(regimes=[{"id": id_, "variant": "base"} for id_ in ("a", "r" * 300)]),
)
_run_regime_too_long = _edit_run(lambda r: r.update(regime="r" * 300))


def _front_too_long_for_four_axes(workspace):
    """The baseline run, which has no training cost, gives way to a copy of
    the qv_only run under a second regime of 200 `r`s: every output name of
    that regime fits, but that of its front over all four cost axes."""
    records = [dict(r, regime="r" * 200) for r in read_run(workspace, QV)]
    write_run(workspace, "3B baseline", records)


def _ghost_chunk_vectors(workspace):
    """Three chunk vectors that name no corpus chunk, each the query vector
    of one question, so that a dense_only regime without rerank scores
    would rank them first."""

    def add(embeddings):
        for qa_id in ("qa000", "qa001", "qa002"):
            embeddings["chunks"][f"ghost_{qa_id}"] = embeddings["queries"][qa_id]

    _edit_json("embeddings.json", add)(workspace)
    regimes = [{"id": "d", "variant": "dense_only"}]
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes, rerank_scores=None))(
        workspace
    )


def _runs_without_records(workspace):
    for path in (workspace / "runs").glob("*.jsonl"):
        path.write_text("", encoding="utf-8")
        record_checksum(workspace, path)


# The cost profile of 3B baseline overrides its VRAM under a misspelt regime.
_override_of_no_regime = _edit_rows(
    "costs.jsonl", lambda rows: rows[0].update(inf_vram_by_regime={"01_base__nuetral": 3.0})
)
OVERRIDE_OF_NO_REGIME = (
    "costs.jsonl: config '3B baseline': inf_vram_by_regime names regime "
    "'01_base__nuetral', which the run set lacks"
)

# Keys of the embeddings and rerank files that name no question or chunk:
# each would be read as nothing, so validate and retrieve reject it.
STRAY_KEY_CASES = [
    (
        "query_vector_of_no_question",
        _edit_json("embeddings.json", lambda e: e["queries"].update(qa9999=e["queries"]["qa000"])),
        "embeddings.json: query vector 'qa9999' is of no question of qa.jsonl",
    ),
    (
        "rerank_entry_of_no_question",
        _edit_json("rerank.json", lambda r: r.update(qa0000=r.pop("qa000"))),
        "rerank.json: rerank entry 'qa0000' is of no question of qa.jsonl",
    ),
    (
        "rerank_chunk_of_no_chunk",
        _edit_json("rerank.json", lambda r: r["qa000"].update(ghost=0.5)),
        "rerank.json: rerank entry 'qa000': chunk id 'ghost' is of no corpus chunk",
    ),
]

# A vector whose squared norm overflows a float would be read as a zero
# vector, and a nonzero one whose squared norm underflows to 0 left unscaled.
_overflowing_chunk_vector = _edit_json(
    "embeddings.json",
    lambda e: e["chunks"].update(chunk000=[x * 1e300 for x in e["chunks"]["chunk000"]]),
)
_underflowing_query_vector = _edit_json(
    "embeddings.json", lambda e: e["queries"].update(qa000=[1e-200] * e["dim"])
)
# No address space holds a 10**30 x 30 bootstrap index matrix.
_unallocatable_resamples = _edit_json("workspace.json", lambda c: c.update(resamples=10**30))
UNALLOCATABLE_RESAMPLES = (
    f"cannot allocate the bootstrap index matrix of resamples x n = {10**30} x 30"
)


# The files differ from those the manifest says the runs were made against.
_changed_gold = _edit_rows("qa.jsonl", lambda rows: rows[0].update(gold_answer="changed"))
_changed_chunk = _edit_rows("corpus.jsonl", lambda rows: rows[0].update(text="changed"))
DATASET_SHA256 = json.loads(
    (SMOKE_WORKSPACE / "runs" / "manifest.json").read_text(encoding="utf-8")
)["dataset"]
TOO_LONG_FOR_CONTEXTS = "output name 'contexts_<id>.jsonl' would be 315 bytes"

# Every chunk text is punctuation, so BM25 has no token to index.
_corpus_without_token = _edit_rows(
    "corpus.jsonl", lambda rows: [row.update(text="!!! ...") for row in rows]
)


def _all(*mutations):
    def write(workspace):
        for mutate in mutations:
            mutate(workspace)

    return write


# Every question is of the train split, and workspace.json names no run set,
# so no record is rejected for a question outside the test split.
_no_test_split = _all(
    _edit_rows("qa.jsonl", lambda rows: [row.update(split="train") for row in rows]),
    _edit_json(
        "workspace.json",
        lambda c: [c.pop(key, None) for key in ("runs", "judge_scores", "costs", "labels")],
    ),
)


# The QA file's checksum under a misspelt key, which would leave the edited
# QA file unverified.
_misspelt_qa_checksum = _all(
    _edit_json(
        "runs/manifest.json",
        lambda m: m["dataset"].update(qa_sha265=m["dataset"].pop("qa_sha256")),
    ),
    _changed_gold,
)


def _append_line(name, line):
    def write(workspace):
        with open(workspace / name, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    return write


def _knobs(knob, value, no_regimes):
    """Set one knob of workspace.json, and when `no_regimes` leave it no
    regimes key, so that no regime spec is parsed."""

    def edit(config):
        config[knob] = value
        if no_regimes:
            del config["regimes"]

    return _edit_json("workspace.json", edit)


# (id, knob, value, message): each retrieval knob out of range is an error
# of the workspace, whether or not it names a regime.
KNOB_CASES = [
    ("top_n_zero", "retrieve_top_n", 0, "retrieve_top_n and eval_top_k must be positive"),
    ("top_k_zero", "eval_top_k", 0, "retrieve_top_n and eval_top_k must be positive"),
    ("k_rrf_negative", "k_rrf", -1, "k_rrf must be positive and finite, got -1.0"),
    ("k_rrf_infinite", "k_rrf", float("inf"), "k_rrf must be positive and finite, got inf"),
    ("k_rrf_nan", "k_rrf", float("nan"), "k_rrf must be positive and finite, got nan"),
]
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
FIRST_RUN_FILE = "runs/3B_baseline__01_base__neutral.jsonl"
SHA256_NOT_STRING = (
    "manifest.json: entry '3B_baseline__01_base__neutral.jsonl': sha256 must be "
    "a non-empty string, got "
)


@pytest.mark.parametrize(
    "mutate, argv, message",
    [
        (None, ["pareto", "--axes", "training_vram"], "training_vram"),
        (_inf_latency, ["validate"], "bad latency"),
        (_inf_latency, ["pareto"], "bad latency"),
        (_file_text("workspace.json", "{"), ["validate"], "malformed JSON"),
        (_file_text("workspace.json", "[]"), ["validate"], "expected a JSON object"),
        (_file_text("embeddings.json", "{"), ["retrieve"], "embeddings.json: malformed JSON"),
        (_edit_json("embeddings.json", lambda e: e.pop("dim")), ["retrieve"], "missing key 'dim'"),
        (_file_text("rerank.json", "[1"), ["retrieve"], "rerank.json: malformed JSON"),
        (_edit_json("workspace.json", _regime_without_id), ["validate"], "needs a string 'id'"),
        (_edit_json("workspace.json", _regime_without_id), ["retrieve"], "needs a string 'id'"),
        (
            _edit_json("workspace.json", lambda c: c["regimes"][0].update(variant="bogus")),
            ["validate"],
            "unknown retrieval variant 'bogus'",
        ),
        (_judge_correctness("high"), ["validate"], "judge.jsonl:1: bad field value"),
        (_judge_correctness(None), ["stats"], "judge.jsonl:1: bad field value"),
        (
            _edit_json("workspace.json", lambda c: c.update(retrieve_top_n="twenty")),
            ["validate"],
            "retrieve_top_n must be an integer, got 'twenty'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(level=[0.9])),
            ["report"],
            "level must be a number",
        ),
        (
            _edit_json("workspace.json", lambda c: c["regimes"].append(dict(c["regimes"][0]))),
            ["retrieve"],
            "duplicate id",
        ),
        (
            _edit_json("rerank.json", lambda r: r["qa000"].update(chunk000="high")),
            ["retrieve"],
            "rerank.json: expected",
        ),
        (_file_text("runs/manifest.json", "{"), ["score"], "manifest.json: malformed JSON"),
        (
            _labels('{"qa_id": "qa000", "config": "3B baseline"}\n'),
            ["report"],
            "labels.jsonl:1: missing field 'class'",
        ),
        (_labels("[1, 2]\n"), ["report"], "labels.jsonl:1: expected a JSON object"),
        (
            _judge_correctness(4.7),
            ["validate"],
            "judge.jsonl:1: bad field value: correctness must be an integer, got 4.7",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(retrieve_top_n=10.9)),
            ["validate"],
            "retrieve_top_n must be an integer, got 10.9",
        ),
        (
            _edit_run(lambda r: r.update(top_k=2.5)),
            ["score"],
            "bad field value: top_k must be an integer, got 2.5",
        ),
        (_edit_run(lambda r: r.update(top_k=4)), ["report"], "top_k 4 differs from top_k 2"),
        (_file_text("embeddings.json", "{"), ["validate"], "embeddings.json: malformed JSON"),
        (_file_text("rerank.json", "[1"), ["validate"], "rerank.json: malformed JSON"),
        (
            _edit_rows("judge.jsonl", lambda rows: rows.insert(1, dict(rows[0], correctness=1))),
            ["validate"],
            "judge.jsonl:2: duplicate judge score ('3B baseline', '01_base__neutral', 'qa000')",
        ),
        (
            _edit_rows("corpus.jsonl", lambda rows: rows[0].update(token_count="abc")),
            ["validate"],
            "corpus.jsonl:1: bad field value",
        ),
        (
            _first_qa_support(5),
            ["validate"],
            "qa.jsonl:1: supporting_chunk_ids must be a list of strings, got 5",
        ),
        (
            _first_qa_support("chunk000"),
            ["validate"],
            "qa.jsonl:1: supporting_chunk_ids must be a list of strings, got 'chunk000'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(k_rrf=0)),
            ["validate"],
            "k_rrf must be positive and finite, got 0.0",
        ),
        (
            _judge_correctness(True),
            ["validate"],
            "judge.jsonl:1: bad field value: correctness must be an integer, got True",
        ),
        (
            _edit_run(lambda r: r.update(top_k=True)),
            ["score"],
            "bad field value: top_k must be an integer, got True",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(seed=True)),
            ["validate"],
            "seed must be an integer, got True",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(k_rrf=True)),
            ["validate"],
            "k_rrf must be a number, got True",
        ),
        (
            _edit_json("embeddings.json", lambda e: e.update(dim=True)),
            ["retrieve"],
            "embeddings.json: bad value: dim must be an integer, got True",
        ),
        (
            _edit_run(lambda r: r.update(context_ids="chunk000")),
            ["score"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: "
            "context_ids must be a list of strings, got 'chunk000'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(judge_scores="typo.jsonl")),
            ["validate"],
            "judge_scores not found: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(judge_scores="typo.jsonl")),
            ["stats"],
            "judge_scores not found: ",
        ),
        (
            _embedding("queries", "qa000", lambda v: v.pop()),
            ["validate"],
            "bad value: query vector 'qa000' must be a list of 8 finite numbers",
        ),
        (
            _embedding("queries", "qa000", lambda v: v.__setitem__(3, float("nan"))),
            ["validate"],
            "bad value: query vector 'qa000' must be a list of 8 finite numbers",
        ),
        (
            _embedding("chunks", "chunk000", lambda v: v.__setitem__(0, True)),
            ["retrieve"],
            "bad value: chunk vector 'chunk000' must be a list of 8 finite numbers",
        ),
        (
            _embedding("chunks", "chunk000", lambda v: v.__setitem__(0, "0.5")),
            ["validate"],
            "bad value: chunk vector 'chunk000' must be a list of 8 finite numbers",
        ),
        (
            _file_text("embeddings.json", '{"dim": -1, "chunks": {}, "queries": {}}'),
            ["retrieve"],
            "embeddings.json: bad value: dim must be positive, got -1",
        ),
        (
            _edit_run(lambda r: r.update(latency_s=True)),
            ["validate"],
            "bad field value: latency_s must be a number, got True",
        ),
        (
            _edit_rows("costs.jsonl", lambda rows: rows[0].update(inf_vram_gb=True)),
            ["validate"],
            "costs.jsonl:1: bad field value: inf_vram_gb must be a number, got True",
        ),
        (
            _edit_json("rerank.json", lambda r: r["qa000"].update(chunk000=True)),
            ["validate"],
            "rerank.json: expected",
        ),
        (
            _labels('{"qa_id": "qa000", "config": "3B baseline", "class": "typo"}\n'),
            ["validate"],
            "labels.jsonl:1: unknown error class 'typo'",
        ),
        (
            _labels('{"qa_id": "qa000", "config": "3B baseline"}\n'),
            ["validate"],
            "labels.jsonl:1: missing field 'class'",
        ),
        (
            _first_cost(inf_vram_gb=float("nan")),
            ["validate"],
            "costs.jsonl:1: 3B baseline: inference_vram must be finite and >= 0, got nan",
        ),
        (
            _first_cost(train_min=float("-inf")),
            ["stats"],
            "costs.jsonl:1: 3B baseline: training_time must be finite and >= 0, got -inf",
        ),
        (
            _first_cost(inf_vram_by_regime={"01_base__neutral": -5}),
            ["validate"],
            "inference_vram for regime '01_base__neutral' must be finite and >= 0, got -5.0",
        ),
        (
            _first_cost(inf_vram_by_regime={"01_base__neutral": float("inf")}),
            ["stats"],
            "inference_vram for regime '01_base__neutral' must be finite and >= 0, got inf",
        ),
        (_not_utf8("workspace.json", 1), ["validate"], "workspace.json: not UTF-8: "),
        (_not_utf8("judge.jsonl", 1), ["validate"], "judge.jsonl:1: not UTF-8: "),
        (_not_utf8("judge.jsonl", 40), ["stats"], "judge.jsonl:40: not UTF-8: "),
        (_not_utf8("runs/manifest.json", 1), ["score"], "manifest.json: not UTF-8: "),
        (
            _edit_json("workspace.json", lambda c: c.update(runs=5)),
            ["validate"],
            "runs must be a path string, got 5",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(corpus=None)),
            ["validate"],
            "corpus must be a path string, got None",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(judge_scores="runs")),
            ["validate"],
            "judge_scores is not a regular file: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(judge_scores="runs")),
            ["stats"],
            "judge_scores is not a regular file: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(costs="runs")),
            ["stats"],
            "costs is not a regular file: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(corpus="runs")),
            ["validate"],
            "corpus is not a regular file: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(qa="runs")),
            ["stats"],
            "qa is not a regular file: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(runs="corpus.jsonl")),
            ["validate"],
            "runs is not a directory: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(out="corpus.jsonl")),
            ["score"],
            "out is not a directory: ",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(out="corpus.jsonl/out")),
            ["retrieve"],
            "out is not a directory: ",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m.update(files=5)),
            ["validate"],
            "manifest.json: files must be a list, got 5",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m.update(files=None)),
            ["stats"],
            "manifest.json: files must be a list, got None",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["files"][0].pop("sha256")),
            ["validate"],
            SHA256_NOT_STRING + "None",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["files"][0].update(sha256=None)),
            ["stats"],
            SHA256_NOT_STRING + "None",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["files"][0].update(sha256="")),
            ["validate"],
            SHA256_NOT_STRING + "''",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["files"][0].update(sha256=5)),
            ["stats"],
            SHA256_NOT_STRING + "5",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m.pop("files")),
            ["validate"],
            "manifest.json: lists no run files",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m.update(files=[])),
            ["stats"],
            "manifest.json: lists no run files",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(resamples=0)),
            ["validate"],
            "resamples must be >= 1, got 0",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(pass_threshold=9)),
            ["validate"],
            "pass_threshold must be in 1..5, got 9",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(pass_threshold=0)),
            ["score"],
            "pass_threshold must be in 1..5, got 0",
        ),
        (
            _dense_only_without_query_vector,
            ["validate"],
            "regime 'd': 1 of 30 test questions have no channel that 'dense_only' "
            "fuses (dense)",
        ),
        (
            _append_line("judge.jsonl", DEEP_ARRAY),
            ["validate"],
            "judge.jsonl:121: malformed line: nested too deeply",
        ),
        (
            _file_text("workspace.json", '{"seed": ' + DEEP_ARRAY + "}"),
            ["validate"],
            "workspace.json: malformed JSON: nested too deeply",
        ),
        (
            _all(
                _edit_rows("qa.jsonl", lambda rows: rows[0].update(split="train")),
                refresh_dataset_checksums,
            ),
            ["validate"],
            f"{FIRST_RUN_FILE}:1: unknown qa_id 'qa000' (not a test-split question)",
        ),
        (
            _all(
                _edit_rows("qa.jsonl", lambda rows: rows[0].update(split="train")),
                refresh_dataset_checksums,
            ),
            ["stats"],
            f"{FIRST_RUN_FILE}:1: unknown qa_id 'qa000' (not a test-split question)",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(seed=-1)),
            ["validate"],
            "seed must be in 0..18446744073709551615, got -1",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(seed=2**64)),
            ["stats"],
            "seed must be in 0..18446744073709551615, got 18446744073709551616",
        ),
        (None, ["pareto", "--axes", "latency,latency"], "repeated cost axis 'latency'"),
        (
            _edit_json("workspace.json", lambda c: c.update(corpus="a" * 300)),
            ["validate"],
            "corpus: cannot look up",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(out="o/" * 3000)),
            ["score"],
            "out: cannot look up",
        ),
        (
            _regime_id("../../../escape"),
            ["validate"],
            "regime '../../../escape': id must be one path component, got '../../../escape'",
        ),
        (
            _regime_id("../../../escape"),
            ["retrieve"],
            "regime '../../../escape': id must be one path component, got '../../../escape'",
        ),
        (_regime_id("x/y"), ["validate"], "id must be one path component, got 'x/y'"),
        (_regime_id("x\0y"), ["retrieve"], "id must be one path component, got 'x\\x00y'"),
        (_regime_id("r" * 300), ["retrieve"], TOO_LONG_FOR_CONTEXTS),
        (_regime_id("r" * 300), ["validate"], TOO_LONG_FOR_CONTEXTS),
        (
            _regime_id("r" * 230),
            ["validate"],
            "output name 'front_<id>_latency_inference_vram.csv' would be 263 bytes",
        ),
        (_run_regime_too_long, ["validate"], TOO_LONG_FOR_CONTEXTS),
        (_run_regime_too_long, ["stats"], TOO_LONG_FOR_CONTEXTS),
        (_run_regime_too_long, ["report"], TOO_LONG_FOR_CONTEXTS),
        (_two_regimes_one_too_long, ["retrieve"], TOO_LONG_FOR_CONTEXTS),
        (
            _front_too_long_for_four_axes,
            ["pareto", "--axes", "latency,inference_vram,training_time,training_vram"],
            "output name 'front_<id>_latency_inference_vram_training_time_training_vram.csv' "
            "would be 261 bytes",
        ),
        (None, ["pareto", "--regime", "nope"], "regime 'nope' not in run set"),
        (
            _dense_only_without_query_vector,
            ["retrieve"],
            "regime 'd': 1 of 30 test questions have no channel that 'dense_only' "
            "fuses (dense)",
        ),
        (_changed_gold, ["validate"], f" != {DATASET_SHA256['qa_sha256']}"),
        (_changed_gold, ["score"], f" != {DATASET_SHA256['qa_sha256']}"),
        (_changed_chunk, ["validate"], f" != {DATASET_SHA256['corpus_sha256']}"),
        (
            _edit_json("runs/manifest.json", lambda m: m.update(dataset=[])),
            ["validate"],
            "manifest.json: dataset must be an object, got []",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["dataset"].update(qa_sha256=None)),
            ["stats"],
            "manifest.json: dataset.qa_sha256 must be a non-empty string, got None",
        ),
        (
            _edit_json("runs/manifest.json", lambda m: m["dataset"].update(corpus_sha256="")),
            ["validate"],
            "manifest.json: dataset.corpus_sha256 must be a non-empty string, got ''",
        ),
        (_labels(""), ["validate"], "labels.jsonl: holds no error labels"),
        (_labels("\n"), ["report"], "labels.jsonl: holds no error labels"),
        (_labels(LABEL + LABEL), ["validate"], "labels.jsonl:2: duplicate of the label on line 1"),
        (_labels(LABEL + LABEL), ["report"], "labels.jsonl:2: duplicate of the label on line 1"),
        (
            _labels(LABEL.replace("qa000", "qa999")),
            ["validate"],
            "labels.jsonl:1: no run record of config '3B baseline' has qa_id 'qa999'",
        ),
        (
            _labels(LABEL + LABEL.replace("3B baseline", "3B r64 qv_only")),
            ["report"],
            "labels.jsonl:2: no run record of config '3B r64 qv_only' has qa_id 'qa000'",
        ),
        (
            _edit_run(lambda r: r.update(regime="../x")),
            ["validate"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: "
            "regime must be one path component, got '../x'",
        ),
        (
            _edit_run(lambda r: r.update(regime="../x")),
            ["stats"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: "
            "regime must be one path component, got '../x'",
        ),
        (
            _config_id_without_scheme,
            ["validate"],
            "cannot parse scheme from config id 'custom-8b'",
        ),
        (
            _rename_config(FULL, FULL + " "),
            ["validate"],
            "cannot parse scheme from config id '3B r4 full_attention '",
        ),
        (
            _rename_config(FULL, FULL + " "),
            ["stats"],
            "cannot parse scheme from config id '3B r4 full_attention '",
        ),
        (
            _rename_config(QV, "3B r08 qv_only"),
            ["stats"],
            "cannot parse scheme from config id '3B r08 qv_only'",
        ),
        *(
            (
                _all(_rename_config(QV, HUGE_QV), _rename_config(FULL, HUGE_FULL)),
                [command],
                f"cannot parse scheme from config id {HUGE_FULL!r}",
            )
            for command in ("validate", "stats")
        ),
        (_judge_correctness(0), ["validate"], "judge.jsonl:1: correctness out of 1..5: 0"),
        (
            _edit_rows("judge.jsonl", lambda rows: rows[0].update(groundedness=6)),
            ["stats"],
            "judge.jsonl:1: groundedness out of 1..5: 6",
        ),
        (_corpus_without_token, ["validate"], retrieval.NO_TOKEN_ERROR),
        (_corpus_without_token, ["retrieve"], retrieval.NO_TOKEN_ERROR),
        (_file_text("corpus.jsonl", ""), ["validate"], retrieval.NO_TOKEN_ERROR),
        (_file_text("corpus.jsonl", ""), ["retrieve"], retrieval.NO_TOKEN_ERROR),
        *(
            (
                _edit_json("workspace.json", lambda c: c.update(regimes=[])),
                [command],
                "workspace.json: regimes lists no regime",
            )
            for command in ("validate", "retrieve")
        ),
        *(
            (_misspelt_qa_checksum, [command], "manifest.json: dataset: unknown key 'qa_sha265'")
            for command in ("validate", "stats")
        ),
        *(
            (_knobs(knob, value, no_regimes), ["validate"], message)
            for _, knob, value, message in KNOB_CASES
            for no_regimes in (False, True)
        ),
        (
            _edit_rows("qa.jsonl", lambda rows: rows[0].update(gold_answer=None)),
            ["validate"],
            "qa.jsonl:1: gold_answer must be a string, got None",
        ),
        (
            _edit_rows("qa.jsonl", lambda rows: rows[0].update(gold_answer=None)),
            ["score"],
            "qa.jsonl:1: gold_answer must be a string, got None",
        ),
        (
            _edit_rows("qa.jsonl", lambda rows: rows[1].update(question={"q": 1})),
            ["validate"],
            "qa.jsonl:2: question must be a string, got {'q': 1}",
        ),
        (
            _edit_rows("qa.jsonl", lambda rows: rows[0].update(qa_id=0)),
            ["score"],
            "qa.jsonl:1: qa_id must be a string, got 0",
        ),
        (
            _edit_run(lambda r: r.update(answer=None)),
            ["validate"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: answer must be a string, got None",
        ),
        (
            _edit_run(lambda r: r.update(answer=None)),
            ["score"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: answer must be a string, got None",
        ),
        (
            _edit_run(lambda r: r.update(regime=None)),
            ["stats"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: regime must be a string, got None",
        ),
        (
            _edit_run(lambda r: r.update(config=["3B r8 qv_only"])),
            ["score"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: "
            "config must be a string, got ['3B r8 qv_only']",
        ),
        (
            _edit_rows("judge.jsonl", lambda rows: rows[0].update(qa_id=None)),
            ["validate"],
            "judge.jsonl:1: qa_id must be a string, got None",
        ),
        (
            _edit_rows("judge.jsonl", lambda rows: rows[0].update(regime=1)),
            ["stats"],
            "judge.jsonl:1: regime must be a string, got 1",
        ),
        (
            _first_cost(config=None),
            ["validate"],
            "costs.jsonl:1: config must be a string, got None",
        ),
        (
            _edit_rows("corpus.jsonl", lambda rows: rows[0].update(text=["a", "b"])),
            ["validate"],
            "corpus.jsonl:1: text must be a string, got ['a', 'b']",
        ),
        (
            _edit_rows("corpus.jsonl", lambda rows: rows[0].update(doc_id=7)),
            ["retrieve"],
            "corpus.jsonl:1: doc_id must be a string, got 7",
        ),
        (
            _edit_rows("corpus.jsonl", lambda rows: rows[0].update(token_count=-1)),
            ["validate"],
            "corpus.jsonl:1: chunk 'chunk000': negative token_count",
        ),
        (
            _labels('{"qa_id": "qa000", "config": "3B baseline", "class": null}\n'),
            ["report"],
            "labels.jsonl:1: class must be a string, got None",
        ),
        (
            _all(
                _first_cost(inf_vram_gb=-1.0),
                _edit_json("embeddings.json", lambda e: e.update(dim=0)),
            ),
            ["validate"],
            "costs.jsonl:1: 3B baseline: inference_vram must be finite and >= 0, got -1.0",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(judge_score="judge.jsonl")),
            ["validate"],
            "workspace.json: unknown key 'judge_score'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(resample=30)),
            ["stats"],
            "workspace.json: unknown key 'resample'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(root="elsewhere")),
            ["validate"],
            "workspace.json: unknown key 'root'",
        ),
        (
            _edit_json("workspace.json", lambda c: c["regimes"][0].update(k_rrf=1)),
            ["validate"],
            "workspace.json: regime '01_base__neutral': unknown key 'k_rrf'",
        ),
        (
            _edit_json("workspace.json", lambda c: c["regimes"][0].update(k_rrf=1)),
            ["stats"],
            "workspace.json: regime '01_base__neutral': unknown key 'k_rrf'",
        ),
        (_latencies_summing_past_floats, ["validate"], LATENCY_SUM_NOT_FINITE),
        (_latencies_summing_past_floats, ["stats"], LATENCY_SUM_NOT_FINITE),
        (_latencies_summing_past_floats, ["pareto"], LATENCY_SUM_NOT_FINITE),
        (_latencies_summing_past_floats, ["report"], LATENCY_SUM_NOT_FINITE),
        (
            _long_int_literal("judge.jsonl"),
            ["validate"],
            f"judge.jsonl:1: malformed line: {LONG_INT}",
        ),
        (
            _long_int_literal(FIRST_RUN_FILE),
            ["validate"],
            f"{FIRST_RUN_FILE}:1: malformed line: {LONG_INT}",
        ),
        (
            _long_int_literal("workspace.json"),
            ["validate"],
            f"workspace.json: malformed JSON: {LONG_INT}",
        ),
        (
            _long_int_literal("embeddings.json"),
            ["retrieve"],
            f"embeddings.json: malformed JSON: {LONG_INT}",
        ),
        *(
            (_ghost_chunk_vectors, [command], "chunk vector 'ghost_qa000' is of no corpus chunk")
            for command in ("validate", "retrieve")
        ),
        *(
            (_runs_without_records, [command], "manifest.json: run files hold no records")
            for command in ("validate", "score", "stats", "pareto", "report")
        ),
        *(
            (_override_of_no_regime, [command], OVERRIDE_OF_NO_REGIME)
            for command in ("validate", "stats", "pareto", "report")
        ),
        *(
            (mutate, [command], message)
            for _, mutate, message in STRAY_KEY_CASES
            for command in ("validate", "retrieve")
        ),
        *(
            (
                _edit_run(lambda r: r.update(top_k=0)),
                [command],
                "3B_r8_qv_only__01_base__neutral.jsonl:30: top_k must be positive, got 0",
            )
            for command in ("validate", "stats")
        ),
        *(
            (
                _overflowing_chunk_vector,
                [command],
                "embeddings.json: bad value: chunk vector 'chunk000' has a squared norm "
                "that overflows as a float",
            )
            for command in ("validate", "retrieve")
        ),
        *(
            (
                _underflowing_query_vector,
                [command],
                "embeddings.json: bad value: query vector 'qa000' has a squared norm "
                "that underflows to 0 as a float",
            )
            for command in ("validate", "retrieve")
        ),
        *(
            (_unallocatable_resamples, [command], UNALLOCATABLE_RESAMPLES)
            for command in ("stats", "pareto", "report")
        ),
        *(
            (
                _first_cost(inf_vram_by_regime=value),
                [command],
                f"costs.jsonl:1: inf_vram_by_regime must be an object, got {shown}",
            )
            for value, shown in (([1], "[1]"), (None, "None"))
            for command in ("validate", "stats")
        ),
        *(
            (_first_regime(**field), ["validate"], f"regime '01_base__neutral': {message}")
            for field, message in (
                ({"prompt_mode": "bogus"}, "unknown prompt mode 'bogus'"),
                ({"variant": ["base"]}, "unknown retrieval variant ['base']"),
                ({"prompt_mode": {}}, "unknown prompt mode {}"),
            )
        ),
        (None, ["pareto", "--regime", ""], "regime '' not in run set"),
        (
            _edit_json("workspace.json", lambda c: c.update(seed="1_0")),
            ["validate"],
            "workspace.json: seed must be an integer, got '1_0'",
        ),
        (
            _edit_json("workspace.json", lambda c: c.update(level="0.9")),
            ["stats"],
            "workspace.json: level must be a number, got '0.9'",
        ),
        (
            _edit_run(lambda r: r.update(latency_s=str(r["latency_s"]))),
            ["validate"],
            "3B_r8_qv_only__01_base__neutral.jsonl:30: bad field value: "
            "latency_s must be a number, got '",
        ),
        (
            _judge_correctness("5"),
            ["validate"],
            "judge.jsonl:1: bad field value: correctness must be an integer, got '5'",
        ),
        (
            _first_cost(inf_vram_gb="4.5"),
            ["stats"],
            "costs.jsonl:1: bad field value: inf_vram_gb must be a number, got '4.5'",
        ),
        (
            _edit_json("embeddings.json", lambda e: e.update(dim=str(e["dim"]))),
            ["retrieve"],
            "embeddings.json: bad value: dim must be an integer, got '8'",
        ),
        *(
            (
                _all(
                    _edit_json("embeddings.json", lambda e: e.update(chunks={})),
                    _edit_json(
                        "workspace.json",
                        lambda c: c.update(regimes=[{"id": "d", "variant": "dense_only"}]),
                    ),
                ),
                [command],
                "embeddings.json: bad value: chunks holds no chunk vector",
            )
            for command in ("validate", "retrieve")
        ),
        *(
            (_no_test_split, [command], "qa.jsonl: holds no test-split question")
            for command in ("validate", "retrieve")
        ),
        (
            _first_qa_support(["ghost"]),
            ["validate"],
            "unresolved supporting_chunk_ids for: ['qa000']",
        ),
        (_regime_id("r" * 300), ["stats"], TOO_LONG_FOR_CONTEXTS),
        (_run_regime_too_long, ["score"], TOO_LONG_FOR_CONTEXTS),
    ],
    ids=[
        "absent_cost_axis", "inf_latency_validate", "inf_latency_pareto",
        "bad_json", "json_not_object",
        "embeddings_bad_json", "embeddings_without_dim", "rerank_bad_json",
        "regime_without_id_validate", "regime_without_id_retrieve", "unknown_variant",
        "judge_non_numeric", "judge_null", "knob_non_numeric", "knob_wrong_type",
        "duplicate_regime_id", "rerank_non_numeric", "manifest_bad_json",
        "labels_missing_field", "labels_not_object", "judge_fractional", "knob_fractional",
        "top_k_fractional", "mixed_top_k",
        "embeddings_bad_json_validate", "rerank_bad_json_validate", "judge_duplicate_row",
        "token_count_non_numeric", "support_number", "support_string", "k_rrf_zero",
        "judge_bool", "top_k_bool", "knob_bool", "float_knob_bool", "embeddings_dim_bool",
        "context_ids_string", "judge_path_typo_validate", "judge_path_typo_stats",
        "query_dim_validate", "query_nan_validate", "chunk_component_bool",
        "chunk_component_string", "embeddings_negative_dim", "latency_bool",
        "cost_bool", "rerank_bool", "labels_unknown_class_validate",
        "labels_missing_field_validate",
        "cost_nan_validate", "cost_minus_inf_stats",
        "cost_override_negative_validate", "cost_override_inf_stats",
        "workspace_not_utf8_validate", "judge_not_utf8_validate", "judge_not_utf8_stats",
        "manifest_not_utf8", "path_not_string", "required_path_null",
        "judge_directory_validate", "judge_directory_stats", "costs_directory_stats",
        "corpus_directory_validate", "qa_directory_stats", "runs_file_validate",
        "out_file_score", "out_under_file_retrieve",
        "manifest_files_int_validate", "manifest_files_null_stats",
        "sha256_missing_validate", "sha256_null_stats", "sha256_empty_validate",
        "sha256_number_stats", "manifest_files_missing_validate",
        "manifest_files_empty_stats",
        "resamples_zero_validate", "pass_threshold_nine_validate",
        "pass_threshold_zero_score",
        "dense_only_without_query_vector_validate", "judge_deeply_nested_validate",
        "workspace_deeply_nested_validate", "run_outside_test_split_validate",
        "run_outside_test_split_stats", "seed_negative_validate", "seed_2_64_stats",
        "repeated_axis_pareto", "path_name_too_long_validate", "path_too_long_score",
        "regime_id_escape_validate", "regime_id_escape_retrieve", "regime_id_slash_validate",
        "regime_id_nul_retrieve", "regime_id_too_long_retrieve",
        "regime_id_too_long_validate", "regime_id_too_long_for_front_validate",
        "run_regime_too_long_validate", "run_regime_too_long_stats",
        "run_regime_too_long_report", "two_regimes_one_too_long_retrieve",
        "front_too_long_for_four_axes_pareto", "regime_not_in_run_set_pareto",
        "dense_only_without_query_vector_retrieve", "qa_changed_validate", "qa_changed_score",
        "corpus_changed_validate", "dataset_not_object_validate", "qa_sha256_null_stats",
        "corpus_sha256_empty_validate", "labels_empty_validate", "labels_blank_report",
        "labels_duplicate_validate", "labels_duplicate_report",
        "labels_unknown_qa_id_validate", "labels_unknown_config_report",
        "run_regime_escape_validate", "run_regime_escape_stats",
        "config_id_without_scheme_validate", "config_id_trailing_space_validate",
        "config_id_trailing_space_stats", "config_id_rank_leading_zero_stats",
        "config_id_rank_4300_digits_validate", "config_id_rank_4300_digits_stats",
        "judge_correctness_zero_validate", "judge_groundedness_six_stats",
        "corpus_without_token_validate", "corpus_without_token_retrieve",
        "corpus_empty_validate", "corpus_empty_retrieve",
        "regimes_empty_validate", "regimes_empty_retrieve",
        "dataset_key_misspelt_validate", "dataset_key_misspelt_stats",
        *(
            f"{name}{suffix}"
            for name, *_ in KNOB_CASES
            for suffix in ("_validate", "_no_regimes_validate")
        ),
        "gold_answer_null_validate", "gold_answer_null_score", "question_object_validate",
        "qa_id_number_score", "answer_null_validate", "answer_null_score",
        "run_regime_null_stats", "run_config_list_score", "judge_qa_id_null_validate",
        "judge_regime_number_stats", "cost_config_null_validate", "chunk_text_list_validate",
        "chunk_doc_id_number_retrieve", "token_count_negative_validate",
        "label_class_null_report", "two_faults_validate", "unknown_key_validate", "unknown_key_stats",
        "root_key_validate", "regime_unknown_key_validate", "regime_unknown_key_stats",
        "latency_sum_overflow_validate", "latency_sum_overflow_stats",
        "latency_sum_overflow_pareto", "latency_sum_overflow_report",
        "judge_long_int_validate", "run_long_int_validate",
        "workspace_long_int_validate", "embeddings_long_int_retrieve",
        "ghost_chunk_vectors_validate", "ghost_chunk_vectors_retrieve",
        *(
            f"runs_without_records_{command}"
            for command in ("validate", "score", "stats", "pareto", "report")
        ),
        *(
            f"override_of_no_regime_{command}"
            for command in ("validate", "stats", "pareto", "report")
        ),
        *(
            f"{name}_{command}"
            for name, *_ in STRAY_KEY_CASES
            for command in ("validate", "retrieve")
        ),
        "run_top_k_zero_validate", "run_top_k_zero_stats",
        "chunk_vector_norm_overflow_validate", "chunk_vector_norm_overflow_retrieve",
        "query_vector_norm_underflow_validate", "query_vector_norm_underflow_retrieve",
        "resamples_unallocatable_stats", "resamples_unallocatable_pareto",
        "resamples_unallocatable_report",
        "cost_override_list_validate", "cost_override_list_stats",
        "cost_override_null_validate", "cost_override_null_stats",
        "prompt_mode_unknown_validate", "variant_list_validate", "prompt_mode_object_validate",
        "empty_regime_pareto",
        "seed_string_validate", "level_string_stats", "latency_string_validate",
        "judge_correctness_string_validate", "cost_string_stats", "embeddings_dim_string_retrieve",
        "embeddings_no_chunk_vector_validate", "embeddings_no_chunk_vector_retrieve",
        "no_test_split_validate", "no_test_split_retrieve",
        "supporting_ghost_validate", "regime_id_too_long_stats", "run_regime_too_long_score",
    ],
)
def test_bad_inputs_exit_1_with_one_line(workspace, capsys, mutate, argv, message):
    """Each bad input is a one-line exit 1, and no command writes anything,
    in out/ or outside it (the workspace's parent included), on the way."""
    if mutate is not None:
        mutate(workspace)
    before = _files_outside_out(workspace)
    assert run(workspace, *argv) == 1
    assert message in one_line_error(capsys, argv[0])
    assert _files_outside_out(workspace) == before
    assert not [path for path in (workspace / "out").rglob("*") if path.is_file()]


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_level_outside_the_open_unit_interval_exits_1(workspace, capsys, level):
    """`WorkspaceConfig` holds the one check of the interval level; the
    bootstrap takes the level as given."""
    _edit_json("workspace.json", lambda c: c.update(level=level))(workspace)
    assert run(workspace, "stats") == 1
    assert "level must be in (0, 1)" in one_line_error(capsys, "stats")
    assert not (workspace / "out").exists()


def _files_outside_out(workspace):
    """{path: bytes} of every file under the workspace's parent directory,
    except those under the workspace's out/."""
    out = workspace / "out"
    return {
        path: path.read_bytes()
        for path in workspace.parent.rglob("*")
        if path.is_file() and out not in path.parents
    }


def test_report_checks_config_ids_before_writing(workspace, capsys):
    _config_id_without_scheme(workspace)
    assert run(workspace, "report") == 1
    err = one_line_error(capsys, "report")
    assert "cannot parse scheme from config id 'custom-8b'" in err
    assert not (workspace / "out").exists()


def test_only_validate_and_retrieve_read_the_corpus(workspace, capsys):
    assert run(workspace, "score") == 0
    scores = (workspace / "out" / "scores.jsonl").read_bytes()
    (workspace / "corpus.jsonl").write_text("{\n", encoding="utf-8")
    for command in ("validate", "retrieve"):
        assert run(workspace, command) == 1
        assert "corpus.jsonl:1: malformed line" in one_line_error(capsys, command)
    for command in ("score", "stats", "pareto", "report"):
        assert run(workspace, command) == 0
    assert (workspace / "out" / "scores.jsonl").read_bytes() == scores


def test_a_corpus_without_token_serves_dense_only_regimes(workspace, capsys):
    """The corpus rule holds only where a regime fuses the sparse channel."""
    _corpus_without_token(workspace)
    refresh_dataset_checksums(workspace)
    _edit_json(
        "workspace.json", lambda c: c.update(regimes=[{"id": "d", "variant": "dense_only"}])
    )(workspace)
    assert run(workspace, "validate") == 0
    assert run(workspace, "retrieve") == 0
    assert capsys.readouterr().err == ""
    contexts = (workspace / "out" / "contexts_d.jsonl").read_text(encoding="utf-8")
    assert len(contexts.splitlines()) == 30


def test_each_command_checks_the_dataset_files_it_reads(workspace, capsys):
    """The manifest's dataset checksums are checked by every command that
    reads runs, for the files it reads: the QA file by all of them, the
    corpus by validate alone."""
    qa, corpus = workspace / "qa.jsonl", workspace / "corpus.jsonl"
    _changed_gold(workspace)
    for command in ("validate", "score", "stats", "pareto", "report"):
        assert run(workspace, command) == 1
        assert capsys.readouterr().err == (
            f"{command}: checksum mismatch for {qa}: {file_checksum(qa)} != "
            f"{DATASET_SHA256['qa_sha256']}\n"
        )
    refresh_dataset_checksums(workspace)
    recorded = file_checksum(corpus)
    _changed_chunk(workspace)
    assert run(workspace, "validate") == 1
    assert capsys.readouterr().err == (
        f"validate: checksum mismatch for {corpus}: {file_checksum(corpus)} != {recorded}\n"
    )
    for command in ("retrieve", "score", "stats", "pareto", "report"):
        assert run(workspace, command) == 0
    # No checksum given, nothing to verify.
    _edit_json("runs/manifest.json", lambda m: m.pop("dataset"))(workspace)
    _edit_rows("qa.jsonl", lambda rows: rows[0].update(gold_answer="other"))(workspace)
    assert run(workspace, "score") == 0


def test_score_does_not_read_the_judge_scores(workspace, capsys):
    assert run(workspace, "score") == 0
    scores = (workspace / "out" / "scores.jsonl").read_bytes()
    (workspace / "judge.jsonl").write_text("{\n", encoding="utf-8")
    assert run(workspace, "score") == 0
    assert (workspace / "out" / "scores.jsonl").read_bytes() == scores
    capsys.readouterr()
    for command in ("validate", "stats", "pareto", "report"):
        assert run(workspace, command) == 1
        assert "judge.jsonl:1: malformed line" in one_line_error(capsys, command)


def test_param_matched_pairs_follow_config_ids(workspace):
    """A base and a rank outside the 3B/8B, r4-r64 grid still get a delta,
    and the 3B rows keep their place after the smaller base."""
    for source, config in ((QV, "1B r128 qv_only"), (FULL, "1B r64 full_attention")):
        write_run(workspace, config, [dict(r, config=config) for r in read_run(workspace, source)])
    assert run(workspace, "stats") == 0
    text = (workspace / "out" / "param_matched.csv").read_text(encoding="utf-8")
    rows = [line.split(",")[:4] for line in text.splitlines()[1:]]
    assert rows == [
        ["01_base__neutral", "512d", "1B r128 qv_only", "1B r64 full_attention"],
        ["01_base__neutral", "32d", QV, FULL],
        ["01_base__neutral", "pooled", "", ""],
    ]


def test_param_matched_pairs_read_a_base_of_any_length(workspace):
    """A base whose digit run is too long for int() still sorts and pairs."""
    base = "1" * 5000 + "B"
    _rename_config(QV, f"{base} r8 qv_only")(workspace)
    _rename_config(FULL, f"{base} r4 full_attention")(workspace)
    assert run(workspace, "validate") == 0
    assert run(workspace, "stats") == 0
    text = (workspace / "out" / "param_matched.csv").read_text(encoding="utf-8")
    rows = [line.split(",")[:4] for line in text.splitlines()[1:]]
    assert rows == [
        ["01_base__neutral", "32d", f"{base} r8 qv_only", f"{base} r4 full_attention"],
    ]


def test_k_rrf_from_workspace_json_reaches_fuse_rrf(workspace, monkeypatch):
    """retrieve fuses every question's two channels with the k_rrf that
    workspace.json gives, and without the reranker the contexts change."""
    regimes = [{"id": "off", "variant": "reranker_off"}]
    _edit_json("workspace.json", lambda c: c.update(regimes=regimes))(workspace)
    assert run(workspace, "retrieve") == 0
    contexts = workspace / "out" / "contexts_off.jsonl"
    default = contexts.read_bytes()
    _edit_json("workspace.json", lambda c: c.update(k_rrf=1))(workspace)
    seen, fuse_rrf = [], retrieval.fuse_rrf

    def recording(lists, k_rrf):
        seen.append(k_rrf)
        return fuse_rrf(lists, k_rrf)

    monkeypatch.setattr(retrieval, "fuse_rrf", recording)
    assert run(workspace, "retrieve") == 0
    assert seen == [1.0] * 30
    assert contexts.read_bytes() != default


def test_topk_tables_follow_each_configs_own_top_k(workspace):
    write_run(
        workspace,
        "3B baseline",
        [dict(r, top_k=4) for r in read_run(workspace, "3B baseline")],
    )
    assert run(workspace, "report") == 0
    with open(workspace / "out" / "topk_summary.csv", encoding="utf-8") as fh:
        rows = {row["k"]: row for row in csv.DictReader(fh)}
    assert rows["4"]["best_config"] == "3B baseline"
    assert rows["4"]["front"] == "3B baseline"
    assert "3B baseline" not in rows["2"]["front"].split(";")


@pytest.mark.parametrize(
    "key, command",
    [
        ("runs", "score"),
        ("judge_scores", "pareto"),
        ("costs", "stats"),
        ("labels", "report"),
        ("embeddings", "retrieve"),
        ("rerank_scores", "retrieve"),
    ],
)
def test_named_input_that_does_not_exist_exits_1(workspace, capsys, key, command):
    _edit_json("workspace.json", lambda c: c.update({key: "typo.jsonl"}))(workspace)
    for argv in (["validate"], [command]):
        assert run(workspace, *argv) == 1
        err = one_line_error(capsys, argv[0])
        assert f"{key} not found: {workspace / 'typo.jsonl'}" in err
    assert not (workspace / "out").exists()


def test_input_left_out_of_workspace_json_is_not_used(workspace):
    _edit_json("workspace.json", lambda c: c.pop("judge_scores"))(workspace)
    assert run(workspace, "stats") == 0
    with open(workspace / "out" / "stats_01_base__neutral.csv", encoding="utf-8") as fh:
        assert {row["grnd_pass"] for row in csv.DictReader(fh)} == {""}


MODULES_LOADED = (
    "import sys; from ragharness.cli import main; code = main(sys.argv[1:]); "
    "print('loaded:', *sorted({'numpy', 'numpy.random', '_hashlib', 'dataclasses', 'inspect', "
    "'ragharness.analysis', "
    "'ragharness.report', 'ragharness.pareto', 'ragharness.lora_grid', 'ragharness.metrics', "
    "'ragharness.dataset', 'ragharness.ingest', 'ragharness.retrieval'} "
    "& set(sys.modules))); "
    "sys.exit(code)"
)


def test_commands_without_arrays_never_import_numpy(workspace):
    """grid, score, and validate on a workspace with embeddings and error
    labels start and finish without numpy, each in a fresh interpreter;
    retrieve loads it. grid imports none of `analysis`, `dataset`, `ingest`
    and `retrieval`, which every workspace command loads. score does not import
    `report`, `pareto` or `lora_grid` either, and validate none of `report`,
    `pareto` or `metrics`. OpenSSL (`_hashlib`) loads in the commands that
    verify the run manifest, and never in grid or retrieve. No command loads
    `numpy.random`: the bootstrap draws its resample indices itself. No
    command loads `dataclasses`, whose import and generated methods cost
    more than most commands' work; grid, score and validate load no
    `inspect` either, which numpy loads in the others."""
    _labels('{"qa_id": "qa000", "config": "3B baseline", "class": "overclaiming"}\n')(
        workspace
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(*argv):
        out = subprocess.run(
            [sys.executable, "-c", MODULES_LOADED, *argv],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return set(out.splitlines()[-1].split()[1:])

    workspace_modules = {
        "ragharness.analysis", "ragharness.dataset", "ragharness.ingest", "ragharness.retrieval"
    }
    assert loaded("grid") == {"ragharness.lora_grid"}
    assert loaded("--workspace", str(workspace), "score") == {
        "_hashlib", "ragharness.metrics", *workspace_modules
    }
    validate = loaded("--workspace", str(workspace), "validate")
    assert validate == {"_hashlib", "ragharness.lora_grid", *workspace_modules}
    retrieve = loaded("--workspace", str(workspace), "retrieve")
    assert "numpy" in retrieve and "_hashlib" not in retrieve
    assert workspace_modules <= retrieve
    stats = loaded("--workspace", str(workspace), "stats")
    assert "_hashlib" in stats and workspace_modules <= stats
    bootstrapped = [stats] + [loaded("--workspace", str(workspace), c) for c in ("pareto", "report")]
    assert all("numpy" in modules for modules in bootstrapped)
    assert not any("numpy.random" in modules for modules in [retrieve, *bootstrapped])
    assert not any("dataclasses" in modules for modules in [retrieve, *bootstrapped])


def test_validate_runs_under_cprofile(workspace, tmp_path):
    """Run as __main__ under another tool, the CLI still reads the regime
    specs of workspace.json as specs rather than as a path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"),
         "-m", "ragharness.cli", "--workspace", str(workspace), "validate"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "validate: ok" in proc.stdout


def test_one_record_may_carry_several_error_classes(workspace):
    _labels(LABEL + LABEL.replace("overclaiming", "retrieval_miss"))(workspace)
    for command in ("validate", "report"):
        assert run(workspace, command) == 0
    counts = json.loads((workspace / "out" / "error_counts.json").read_text(encoding="utf-8"))
    assert counts["n"] == 2
    assert counts["per_config"]["3B baseline"]["retrieval_miss"]["count"] == 1
