import json
import random

import pytest

from ragharness.dataset import Chunk, QaPair, load_corpus, load_qa
from ragharness.errors import HarnessError, as_float, as_int
from ragharness.ingest import (
    CostProfile,
    ErrorLabel,
    Run,
    load_cost_profile,
    load_labels,
    load_runs,
    read_keyed,
    read_rows,
)
from ragharness.metrics import exact_match, token_f1
from ragharness.report import RegimeRow
from ragharness.stats import DeltaEstimate, Interval, ResamplePlan
from tests.conftest import file_checksum


# The gold answers of the test-split questions the run records name.
GOLD = {f"q{i}": "yes" for i in range(5)}


def write_run_set(root, records, tamper=False):
    runs = root / "runs"
    runs.mkdir(exist_ok=True)
    run_file = runs / "cfg__regime.jsonl"
    with open(run_file, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    digest = file_checksum(run_file)
    if tamper:
        digest = "0" * 64
    manifest = {"files": [{"path": "cfg__regime.jsonl", "sha256": digest}]}
    (runs / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return runs


def record(qa_id, config="cfgA", regime="01", answer="yes", latency=0.5):
    return {
        "config": config,
        "regime": regime,
        "qa_id": qa_id,
        "answer": answer,
        "latency_s": latency,
        "context_ids": ["c1", "c2"],
        "top_k": 2,
    }


def test_load_runs_roundtrip(tmp_path):
    records = [record(f"q{i}") for i in range(5)]
    runs = write_run_set(tmp_path, records)
    first = load_runs(runs, GOLD)
    second = load_runs(runs, GOLD)
    assert first.runs == second.runs
    assert first.n_records() == 5


def test_load_runs_checksum_mismatch(tmp_path):
    runs = write_run_set(tmp_path, [record("q0")], tamper=True)
    with pytest.raises(HarnessError, match="checksum mismatch"):
        load_runs(runs, GOLD)


def test_load_runs_duplicate_triple(tmp_path):
    runs = write_run_set(tmp_path, [record("q0"), record("q0")])
    with pytest.raises(HarnessError, match="duplicate record"):
        load_runs(runs, GOLD)


def test_load_runs_negative_latency(tmp_path):
    runs = write_run_set(tmp_path, [record("q0", latency=-1.0)])
    with pytest.raises(HarnessError, match="latency"):
        load_runs(runs, GOLD)


def test_load_runs_unknown_qa_id(tmp_path):
    runs = write_run_set(tmp_path, [record("q0"), record("mystery")])
    with pytest.raises(HarnessError, match="unknown qa_id"):
        load_runs(runs, {"q0": "yes"})


def test_load_runs_missing_manifest(tmp_path):
    with pytest.raises(HarnessError, match="manifest not found"):
        load_runs(tmp_path, GOLD)


NOT_A_SHA256 = "sha256 must be a non-empty string, got "


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["files"][0].pop("sha256"), NOT_A_SHA256 + "None"),
        (lambda m: m["files"][0].update(sha256=None), NOT_A_SHA256 + "None"),
        (lambda m: m["files"][0].update(sha256=""), NOT_A_SHA256 + "''"),
        (lambda m: m["files"][0].update(sha256=["ab"]), NOT_A_SHA256 + "['ab']"),
        (lambda m: m.pop("files"), "lists no run files"),
        (lambda m: m.update(files=[]), "lists no run files"),
    ],
    ids=[
        "sha256_missing", "sha256_null", "sha256_empty", "sha256_list",
        "files_missing", "files_empty",
    ],
)
def test_load_runs_rejects_unverifiable_manifest(tmp_path, edit, message):
    """A manifest entry without its file's checksum, or a manifest that lists
    no file, is an error naming the manifest, never a run set read unchecked
    or an empty one."""
    runs = write_run_set(tmp_path, [record("q0")])
    manifest_path = runs / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(HarnessError, match="manifest.json: ") as excinfo:
        load_runs(runs, GOLD)
    assert message in str(excinfo.value)


def write_scores(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def score_row(qa_id, config="cfgA", regime="01", corr=5, grnd=4):
    return {
        "config": config,
        "regime": regime,
        "qa_id": qa_id,
        "correctness": corr,
        "groundedness": grnd,
    }


def test_load_runs_joins_judge_scores(tmp_path):
    runs = write_run_set(tmp_path, [record("q0"), record("q1")])
    scores = tmp_path / "judge.jsonl"
    write_scores(scores, [score_row("q0"), score_row("q1", corr=2, grnd=2)])
    run_set = load_runs(runs, GOLD, judge_path=scores)
    run = run_set.runs["01"]["cfgA"]
    assert run.qa_ids == ["q0", "q1"]
    assert run.correctness == [5, 2]
    assert run.groundedness == [4, 2]
    assert run_set.unmatched_scores == 0


def test_load_runs_reports_unmatched_judge_rows_in_file_order(tmp_path):
    runs = write_run_set(tmp_path, [record("q0")])
    scores = tmp_path / "judge.jsonl"
    write_scores(scores, [score_row("ghost"), score_row("q0"), score_row("phantom")])
    run_set = load_runs(runs, GOLD, judge_path=scores)
    assert run_set.unmatched_scores == 2
    assert run_set.runs["01"]["cfgA"].correctness == [5]
    # Unmatched rows of two runs, and of a config with no records,
    # interleaved in the judge file, are each counted once.
    runs = write_run_set(tmp_path, [record("q0"), record("q0", "cfgB", "02")])
    rows = [
        score_row("ghost"), score_row("spook", "cfgB", "02"), score_row("q0"),
        score_row("q0", "cfgZ"), score_row("phantom"), score_row("q0", "cfgB", "02", corr=1),
        score_row("wraith", "cfgB", "02"),
    ]
    write_scores(scores, rows)
    run_set = load_runs(runs, GOLD, judge_path=scores)
    assert run_set.unmatched_scores == 5
    assert run_set.runs["02"]["cfgB"].correctness == [1]


def test_records_of_one_qa_id_hold_one_str_object(tmp_path):
    runs = write_run_set(
        tmp_path, [record("q0"), record("q0", "cfgB"), record("q1"), record("q0", regime="02")]
    )
    # Every record holds the object that is the gold map's key for its id.
    given = {"".join(["q", str(i)]): "yes" for i in range(2)}
    run_set = load_runs(runs, given)
    first = run_set.runs["01"]["cfgA"].qa_ids[0]
    assert run_set.runs["01"]["cfgB"].qa_ids[0] is first
    assert run_set.runs["02"]["cfgA"].qa_ids[0] is first
    held = [qa_id for by_config in run_set.runs.values() for run in by_config.values()
            for qa_id in run.qa_ids]
    assert len(held) == 4 and all(any(qa_id is q for q in given) for qa_id in held)


def test_load_runs_empty_judge_file_leaves_records_unjudged(tmp_path):
    runs = write_run_set(tmp_path, [record("q0")])
    scores = tmp_path / "judge.jsonl"
    scores.write_text("", encoding="utf-8")
    run_set = load_runs(runs, GOLD, judge_path=scores)
    assert run_set.runs["01"]["cfgA"].correctness == [None]
    assert run_set.runs == load_runs(runs, GOLD).runs


def test_load_runs_rejects_duplicate_judge_row(tmp_path):
    runs = write_run_set(tmp_path, [record("q0")])
    scores = tmp_path / "judge.jsonl"
    write_scores(scores, [score_row("q0"), score_row("q1"), score_row("q0", corr=1)])
    with pytest.raises(HarnessError, match=r"judge.jsonl:3: duplicate judge score"):
        load_runs(runs, GOLD, judge_path=scores)


# A key with a quote and non-ASCII text, and the repr the messages show it as.
ODD_KEY = "it's \u00e9\u4e2d"
ODD_KEY_REPR = '"it\'s \u00e9\u4e2d"'


def test_read_keyed_rows_in_file_order(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_scores(path, [{"k": "b", "v": 1}, {"k": "a", "v": 2}])
    rows = read_keyed(path, dict, lambda row: row["k"], "k")
    assert list(rows.items()) == [("b", {"k": "b", "v": 1}), ("a", {"k": "a", "v": 2})]


def test_duplicate_key_messages_are_exact(tmp_path):
    """Each keyed loader words a repeated key the same way, byte for byte:
    file:line, the noun, and the key's repr."""
    chunk = {"chunk_id": ODD_KEY, "text": "alpha"}
    pair = {"qa_id": ODD_KEY, "question": "q?", "gold_answer": "a",
            "answer_type": "normal", "split": "test"}
    cost = {"config": ODD_KEY, "inf_vram_gb": 1.0}
    judge = score_row(ODD_KEY, config="cfg \u00e9")
    runs = write_run_set(tmp_path, [record("q0")])
    cases = [
        (load_corpus, [chunk, chunk], f"duplicate chunk_id {ODD_KEY_REPR}"),
        (load_qa, [pair, pair], f"duplicate qa_id {ODD_KEY_REPR}"),
        (load_cost_profile, [cost, cost], f"duplicate config {ODD_KEY_REPR}"),
        (
            lambda path: load_runs(runs, GOLD, judge_path=path),
            [judge, judge],
            f"duplicate judge score ('cfg \u00e9', '01', {ODD_KEY_REPR})",
        ),
    ]
    for load, rows, tail in cases:
        path = tmp_path / "keyed.jsonl"
        write_scores(path, rows)
        with pytest.raises(HarnessError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:2: {tail}"


def test_columns_equal_a_per_line_reference(tmp_path):
    """Rows of six (config, regime) pairs, shuffled across three run files,
    with half of them judged: each Run's columns hold exactly what a
    per-line json.loads reads, in record order, each qa_id as the object the
    gold map's keys hold, and the scores filled as the rows load are those
    of token_f1 and exact_match row by row."""
    rng = random.Random(1212)
    words = ["port", "6443", "--flag", "the", "node.spec", "Apply.", "café", "\"quoted\""]
    qa_ids = [f"q{i}" for i in range(30)]
    gold = {q: " ".join(rng.choices(words, k=3)) for q in qa_ids}
    rows = []
    for config in ("cfgA", "cfgB", "cfgC"):
        for regime in ("01", "02"):
            for q in qa_ids:
                row = {
                    "config": config, "regime": regime, "qa_id": q,
                    "answer": " ".join(rng.choices(words, k=rng.randint(0, 4))),
                    "latency_s": rng.choice([1, 0, 1e-7, 123456789.0, rng.random() * 9]),
                }
                if regime == "02":
                    row["top_k"] = 3
                if rng.random() < 0.8:
                    row["context_ids"] = rng.sample(["c1", "c2", "c3"], rng.randint(0, 3))
                rows.append(row)
    rng.shuffle(rows)
    runs = tmp_path / "runs"
    runs.mkdir()
    files = []
    for i, part in enumerate((rows[:50], rows[50:51], rows[51:])):
        path = runs / f"part{i}.jsonl"
        # Spacing around and inside a line, blank lines and CRLF ends read
        # the same as a compact line.
        lines = [
            rng.choice(["", " ", "\t"])
            + json.dumps(row, separators=rng.choice([(",", ":"), (", ", ": ")]))
            + rng.choice(["\n", "\r\n", "  \n", "\n\n"])
            for row in part
        ]
        path.write_bytes("".join(lines).encode("utf-8"))
        files.append({"path": path.name, "sha256": file_checksum(path)})
    (runs / "manifest.json").write_text(json.dumps({"files": files}), encoding="utf-8")
    judge_rows = [
        score_row(r["qa_id"], r["config"], r["regime"], rng.randint(1, 5), rng.randint(1, 5))
        for r in rng.sample(rows, len(rows) // 2)
    ] + [score_row("q0", "cfgZ")]
    judge = tmp_path / "judge.jsonl"
    write_scores(judge, judge_rows)

    run_set = load_runs(runs, gold, judge_path=judge, scored=True)

    reference = {}
    for entry in files:
        for line in (runs / entry["path"]).read_text(encoding="utf-8").splitlines():
            if line.strip():
                row = json.loads(line)
                reference.setdefault((row["config"], row["regime"]), []).append(row)
    judged = {(j["config"], j["regime"], j["qa_id"]): j for j in judge_rows}
    assert [(cid, rid) for rid, runs in run_set.runs.items() for cid in runs] == sorted(
        reference, key=lambda key: (key[1], key[0])
    )
    assert run_set.n_records() == len(rows)
    for key, ref in reference.items():
        run = run_set.runs[key[1]][key[0]]
        verdicts = [judged.get((*key, r["qa_id"])) for r in ref]
        assert (run.config_id, run.regime_id, run.eval_top_k) == (*key, ref[0].get("top_k", 2))
        assert run.qa_ids == [r["qa_id"] for r in ref]
        assert all(qa_id is qa_ids[int(qa_id[1:])] for qa_id in run.qa_ids)
        assert run.latencies == [float(r["latency_s"]) for r in ref]
        assert all(type(v) is float for v in run.latencies)
        assert run.correctness == [v and v["correctness"] for v in verdicts]
        assert run.groundedness == [v and v["groundedness"] for v in verdicts]
        assert run.f1s == [token_f1(r["answer"], gold[r["qa_id"]]) for r in ref]
        assert run.exact == [exact_match(r["answer"], gold[r["qa_id"]]) for r in ref]
    # Every judge row but cfgZ's names a record.
    assert run_set.unmatched_scores == 1


@pytest.mark.parametrize(
    "line",
    ['{"a": 1} x', '{"a": 1}{"a": 2}', '{"a": }', "\ufeff{}", "{", "nan x", "[1"],
    ids=["trailing_word", "two_objects", "no_value", "bom", "open_object", "nan_word",
         "open_array"],
)
def test_read_rows_words_a_malformed_line_as_json_loads_does(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"ok": 1}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(line)
    with pytest.raises(HarnessError) as got:
        list(read_rows(path, dict))
    assert str(got.value) == f"{path}:2: malformed line: {expected.value}"


def test_as_int_rejects_fractions_and_keeps_integral_values():
    assert as_int(4, "k") == 4
    assert as_int(4.0, "k") == 4
    with pytest.raises(ValueError, match="^k must be an integer, got '4'$"):
        as_int("4", "k")
    for bad in (4.7, -0.5, float("inf"), float("nan"), True, False, None, [4]):
        with pytest.raises(ValueError, match="k must be an integer"):
            as_int(bad, "k")
    assert as_float(4, "x") == 4.0
    with pytest.raises(ValueError, match="^x must be a number, got '2.5'$"):
        as_float("2.5", "x")
    for bad in (True, False, None, [2.5]):
        with pytest.raises(ValueError, match="x must be a number, got"):
            as_float(bad, "x")


def test_load_cost_profile(tmp_path):
    path = tmp_path / "costs.jsonl"
    rows = [
        {"config": "3B r4 qv_only", "train_min": 52.95, "train_vram_gb": 19.07,
         "inf_vram_gb": 12.668},
        {"config": "3B baseline", "inf_vram_gb": 12.664},
    ]
    write_scores(path, rows)
    profiles = load_cost_profile(path)
    assert profiles["3B r4 qv_only"].training_time == pytest.approx(52.95)
    assert profiles["3B baseline"].training_time is None
    assert profiles["3B baseline"].inference_vram == pytest.approx(12.664)


def test_load_cost_profile_rejects_duplicate_config(tmp_path):
    path = tmp_path / "costs.jsonl"
    write_scores(path, [{"config": "a", "inf_vram_gb": 1.0},
                        {"config": "a", "inf_vram_gb": 2.0}])
    with pytest.raises(HarnessError, match="duplicate config"):
        load_cost_profile(path)


def test_cost_profile_regime_override():
    profile = CostProfile(
        config_id="a",
        inference_vram=10.0,
        inference_vram_by_regime={"05_dense_only__neutral": 9.0},
    )
    assert profile.inference_vram_for("01_base__neutral") == 10.0
    assert profile.inference_vram_for("05_dense_only__neutral") == 9.0
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(HarnessError, match="must be finite and >= 0"):
            CostProfile(config_id="a", inference_vram=bad)
        with pytest.raises(HarnessError, match="inference_vram for regime 'r'"):
            CostProfile(config_id="a", inference_vram_by_regime={"r": bad})


@pytest.mark.parametrize(
    "record",
    [
        Interval(0.1, 0.2),
        DeltaEstimate(0.1, Interval(0.0, 0.2), True),
        ResamplePlan(),
        RegimeRow(config="c", f1=0.5, latency=0.6),
        Chunk("c1", "d1", "text"),
        QaPair("q1", "question?", "answer", "exact", "test"),
        CostProfile("c"),
        ErrorLabel("q1", "c", "overclaiming"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_refuse_attribute_assignment(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_error_labels_are_hashable():
    """load_labels finds a duplicate label by keying a dict on it."""
    label = ErrorLabel("q1", "c", "overclaiming")
    assert {label: 1}[ErrorLabel("q1", "c", "overclaiming")] == 1


def test_cost_profiles_never_share_an_override_dict():
    a, b = CostProfile("a"), CostProfile("b")
    assert a.inference_vram_by_regime == b.inference_vram_by_regime == {}
    assert a.inference_vram_by_regime is not b.inference_vram_by_regime


def test_run_counts_records_and_equals_a_run_of_the_same_columns():
    run = Run("c", "r", 2, qa_ids=["q1", "q2"], latencies=[0.5, 0.6])
    assert len(run) == 2 and len(Run("c", "r", 2)) == 0
    assert run == Run("c", "r", 2, qa_ids=["q1", "q2"], latencies=[0.5, 0.6])
    assert run != Run("c", "r", 2, qa_ids=["q1", "q2"], latencies=[0.5, 0.7])
    assert run != Run("c", "r", 3, qa_ids=["q1", "q2"], latencies=[0.5, 0.6])
    # A column not given is a new list in each run.
    a, b = Run("c", "r", 2), Run("c", "r", 2)
    a.f1s.append(1.0)
    assert b.f1s == []


def test_error_label_enum_closed():
    with pytest.raises(HarnessError, match="^unknown error class 'hallucination'$"):
        ErrorLabel(qa_id="q", config_id="c", error_class="hallucination")


def test_load_labels_in_file_order_against_the_run_set(tmp_path):
    run_set = load_runs(write_run_set(tmp_path, [record("q1"), record("q2")]), GOLD)
    path = tmp_path / "labels.jsonl"
    rows = [
        {"qa_id": "q2", "config": "cfgA", "class": "overclaiming"},
        {"qa_id": "q1", "config": "cfgA", "class": "retrieval_miss"},
        {"qa_id": "q2", "config": "cfgA", "class": "retrieval_miss"},
    ]
    write_scores(path, rows)
    want = [ErrorLabel(r["qa_id"], r["config"], r["class"]) for r in rows]
    assert load_labels(path, run_set) == load_labels(path) == want
    write_scores(path, [*rows, {"qa_id": "q3", "config": "cfgA", "class": "overclaiming"}])
    assert len(load_labels(path)) == 4
    with pytest.raises(HarnessError, match=r"labels.jsonl:4: no run record of config 'cfgA'"):
        load_labels(path, run_set)
    write_scores(path, [*rows, rows[1]])
    with pytest.raises(HarnessError, match=r"labels.jsonl:4: duplicate of the label on line 2"):
        load_labels(path)
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(HarnessError, match=r"labels.jsonl: holds no error labels"):
        load_labels(path)
