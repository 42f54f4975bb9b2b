import csv
import random
from collections import Counter

import pytest

from ragharness.ingest import ERROR_CLASSES, ErrorLabel, Run, RunSet
from ragharness.lora_grid import parse_config_id
from ragharness.metrics import exact_match, token_f1
from ragharness.pareto import pareto_front
from ragharness.report import (
    RegimeRow,
    ablation_summary,
    emit_front_data,
    error_counts,
    format_regime_table,
    regime_table,
    scheme_wins,
    topk_summary,
    write_csv,
)
from ragharness.stats import ResamplePlan


GOLD = {"q0": "port 6443", "q1": "use --force", "q2": "the node drains"}
ANSWERS = {
    "cfgA": {"q0": "port 6443", "q1": "use --force", "q2": "node"},
    "cfgB": {"q0": "port 6444", "q1": "unknown", "q2": "it restarts"},
}


def make_run_set():
    """Both configs of ANSWERS in regime "01", each record scored as
    `ingest.load_runs` scores it: by token_f1 and exact_match against its
    gold answer."""
    runs = {}
    for config, by_qa in ANSWERS.items():
        qa_ids = sorted(by_qa)
        f1s = [token_f1(by_qa[q], GOLD[q]) for q in qa_ids]
        exact = [exact_match(by_qa[q], GOLD[q]) for q in qa_ids]
        runs[config] = Run(
            config_id=config,
            regime_id="01",
            eval_top_k=2,
            qa_ids=qa_ids,
            latencies=[0.5 + 0.1 * i for i in range(len(qa_ids))],
            correctness=[5 if config == "cfgA" else 2] * len(qa_ids),
            groundedness=[4 if config == "cfgA" else 3] * len(qa_ids),
            f1s=f1s,
            exact=exact,
        )
    return RunSet(runs={"01": runs})


def test_regime_table_means_match_direct_recomputation():
    run_set = make_run_set()
    rows = regime_table(run_set.runs["01"], {}, ResamplePlan(n_resamples=50))
    assert [r.config for r in rows] == ["cfgA", "cfgB"]
    cfg_a = rows[0]
    expected = sum(token_f1(answer, GOLD[qa_id]) for qa_id, answer in ANSWERS["cfgA"].items()) / 3
    assert cfg_a.f1 == pytest.approx(expected)
    assert cfg_a.em == pytest.approx(2 / 3)
    assert cfg_a.latency == pytest.approx(0.6)
    assert cfg_a.grnd_pass == 1.0
    assert rows[1].grnd_pass == 0.0


def scored_run(indices, correctness=None, groundedness=None):
    """{config_id: Run} of one scored config in regime "r", record i having
    F1 0.1 * i, an exact match when i is even and latency 0.5 + 0.01 * i; a
    judge column left out is unjudged."""
    unjudged = [None] * len(indices)
    run = Run(
        "cfg", "r", 2,
        qa_ids=[f"q{i}" for i in indices],
        latencies=[0.5 + 0.01 * i for i in indices],
        correctness=correctness or unjudged,
        groundedness=groundedness or unjudged,
        f1s=[0.1 * i for i in indices],
        exact=[i % 2 == 0 for i in indices],
    )
    return {"cfg": run}


def test_regime_table_pass_rates_match_direct_recomputation():
    runs = scored_run(
        range(10),
        correctness=[5 if i > 4 else 2 for i in range(10)],
        groundedness=[4 if i > 2 else 1 for i in range(10)],
    )
    (row,) = regime_table(runs, {}, ResamplePlan(n_resamples=50))
    assert row.n == 10
    assert row.f1 == pytest.approx(sum(0.1 * i for i in range(10)) / 10)
    assert row.em == 0.5
    assert row.latency == pytest.approx(sum(0.5 + 0.01 * i for i in range(10)) / 10)
    assert row.grnd_pass == 0.7
    assert row.corr_pass == 0.5
    assert row.f1_lo <= row.f1 <= row.f1_hi
    assert row.grnd_lo <= row.grnd_pass <= row.grnd_hi
    (strict,) = regime_table(runs, {}, ResamplePlan(n_resamples=50), pass_threshold=5)
    assert strict.grnd_pass == 0.0
    assert strict.corr_pass == 0.5


def test_regime_table_pass_rates_equal_an_independent_count():
    """At every threshold 1..5, each pass rate is `==` to the count of judged
    scores at or above it over the number judged, on random 1..5 scores with
    unjudged records among them."""
    rng = random.Random(30)
    for n in (1, 2, 7, 50, 333):
        judged = [rng.random() < 0.8 for _ in range(n)]
        judged[0] = True
        correctness = [rng.randint(1, 5) if j else None for j in judged]
        groundedness = [rng.randint(1, 5) if j else None for j in judged]
        runs = scored_run(range(n), correctness, groundedness)
        for threshold in range(1, 6):
            (row,) = regime_table(runs, {}, ResamplePlan(n_resamples=5), threshold)
            for rate, scores in ((row.grnd_pass, groundedness), (row.corr_pass, correctness)):
                scores = [s for s in scores if s is not None]
                assert rate == sum(1 for s in scores if s >= threshold) / len(scores)


def test_regime_table_without_judge_scores():
    (row,) = regime_table(scored_run([5]), {}, ResamplePlan(n_resamples=10))
    assert row.f1 == 0.5
    assert row.f1_lo is not None and row.f1_hi is not None
    assert row.grnd_pass is None and row.grnd_lo is None and row.grnd_hi is None
    assert row.corr_pass is None and row.corr_lo is None and row.corr_hi is None


def test_ablation_summary_published_fixture(regime_tables):
    summary = ablation_summary(regime_tables)
    assert len(summary) == 10
    assert [row[0] for row in summary] == sorted(regime_tables)
    assert all(len(row) == 6 for row in summary)
    for regime_id, best_f1_config, best_f1, best_grnd_config, best_grnd, same in summary:
        rows = {r.config: r for r in regime_tables[regime_id]}
        assert best_f1_config == "8B r64 qv_only"
        assert best_f1 == rows[best_f1_config].f1 == max(r.f1 for r in rows.values())
        assert best_grnd == rows[best_grnd_config].grnd_pass
        assert best_grnd == max(r.grnd_pass for r in rows.values())
        assert same == 0
    wins = scheme_wins(summary)
    assert wins["f1"] == {"qv_only": 10}
    assert wins["grnd"] == {"qv_only": 8, "full_attention": 2}
    grnd_full = [
        regime_id
        for regime_id, _, _, best_grnd_config, _, _ in summary
        if parse_config_id(best_grnd_config)[1] == "full_attention"
    ]
    assert grnd_full == [
        "07_sparse_only__neutral",
        "08_sparse_only__explicit_grounded",
    ]


def test_ablation_summary_reorder_invariance(regime_tables):
    rng = random.Random(4)
    shuffled = {
        rid: rng.sample(rows, len(rows)) for rid, rows in regime_tables.items()
    }
    assert ablation_summary(shuffled) == ablation_summary(regime_tables)


def test_ablation_summary_singleton():
    row = RegimeRow(config="only", f1=0.5, latency=0.6, grnd_pass=0.7)
    assert ablation_summary({"r": [row]}) == [["r", "only", 0.5, "only", 0.7, 1]]


def test_ablation_summary_unjudged_regime_leaves_its_grnd_cells_empty():
    judged = RegimeRow(config="3B r4 qv_only", f1=0.5, latency=0.6, grnd_pass=0.7)
    unjudged = RegimeRow(config="3B r8 qv_only", f1=0.4, latency=0.6)
    assert ablation_summary({"b": [unjudged], "a": [judged, unjudged]}) == [
        ["a", "3B r4 qv_only", 0.5, "3B r4 qv_only", 0.7, 1],
        ["b", "3B r8 qv_only", 0.4, None, None, 0],
    ]


def test_scheme_wins_without_judge_scores():
    row = RegimeRow(config="3B r4 qv_only", f1=0.5, latency=0.6)
    wins = scheme_wins(ablation_summary({"r": [row]}))
    assert wins["f1"] == {"qv_only": 1}
    assert wins["grnd"] is None


def test_scheme_wins_sums_equal_regime_count(regime_tables):
    wins = scheme_wins(ablation_summary(regime_tables))
    assert sum(wins["f1"].values()) == 10
    assert sum(wins["grnd"].values()) == 10


def test_topk_summary_published_fixture(topk_tables):
    assert topk_summary(topk_tables) == [
        [1, "8B r64 qv_only", 0.600, 0.604, "8B r64 qv_only"],
        [2, "8B r64 qv_only", 0.617, 0.655, "3B r64 qv_only;8B r64 qv_only"],
        [4, "8B r64 qv_only", 0.632, 0.719, "3B r64 qv_only;8B r64 qv_only"],
    ]


def test_topk_summary_identical_tables(topk_tables):
    table = topk_tables[2]
    rows = topk_summary({1: table, 2: table})
    assert [row[0] for row in rows] == [1, 2]
    assert rows[0][1:] == rows[1][1:]


def test_error_counts_published_fixture(error_label_records):
    labels = [
        ErrorLabel(qa_id=r["qa_id"], config_id=r["config"], error_class=r["class"])
        for r in error_label_records
    ]
    counts = error_counts(labels)
    assert counts["n"] == 100
    total = counts["total"]
    assert total["exact_precision_failure"] == {"count": 53, "pct": 53.0}
    assert total["incomplete_answer"] == {"count": 24, "pct": 24.0}
    assert total["retrieval_miss"] == {"count": 19, "pct": 19.0}
    assert total["overclaiming"] == {"count": 4, "pct": 4.0}
    per = counts["per_config"]
    assert per["3B r64 qv_only"]["exact_precision_failure"] == {"count": 20, "pct": 40.0}
    assert per["8B r64 qv_only"]["exact_precision_failure"] == {"count": 33, "pct": 66.0}
    assert per["3B r64 qv_only"]["incomplete_answer"]["pct"] == 34.0


def test_error_counts_random_oracle():
    rng = random.Random(17)
    labels = [
        ErrorLabel(
            qa_id=f"q{i}",
            config_id=rng.choice(["3B baseline", "8B baseline"]),
            error_class=rng.choice(ERROR_CLASSES),
        )
        for i in range(200)
    ]
    counts = error_counts(labels)
    oracle = Counter((l.config_id, l.error_class) for l in labels)
    for cid, column in counts["per_config"].items():
        for cls in ERROR_CLASSES:
            assert column[cls]["count"] == oracle.get((cid, cls), 0)
    # Percentages sum to 100 per column within rounding.
    for column in counts["per_config"].values():
        assert sum(cell["pct"] for cell in column.values()) == pytest.approx(100.0, abs=0.3)


def test_emit_front_data_roundtrip(tmp_path, regime_tables):
    rows = regime_tables["01_base__neutral"]
    points = [(r.config, r.f1, {"latency": r.latency}) for r in rows]
    front = pareto_front(points, ("latency",))
    dest = tmp_path / "front.csv"
    emit_front_data("01_base__neutral", points, front, dest, ("latency",))
    with open(dest, encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 22
    flagged = sorted(r["config"] for r in table if r["on_front"] == "1")
    assert flagged == ["3B r64 qv_only", "8B r64 qv_only"]
    assert {r["regime"] for r in table} == {"01_base__neutral"}
    # Re-emitting yields identical bytes.
    first = dest.read_bytes()
    emit_front_data("01_base__neutral", points, front, dest, ("latency",))
    assert dest.read_bytes() == first


def test_emit_front_data_empty(tmp_path):
    dest = tmp_path / "front.csv"
    emit_front_data("r", [], [], dest, ("latency",))
    assert dest.read_text(encoding="utf-8") == "config,regime,quality,latency,on_front\n"


def test_write_csv_cell_rule(tmp_path):
    """A float to 6 significant digits, None empty, anything else as `csv`
    writes it; UTF-8, LF line ends, the directory created."""
    dest = tmp_path / "new" / "table.csv"
    write_csv(
        dest,
        ["float", "none", "int", "text", "bool"],
        [[0.123456789, None, 10**7, "a,b", True], [2.0, None, 0, "é", False]],
    )
    assert dest.read_bytes() == (
        'float,none,int,text,bool\n0.123457,,10000000,"a,b",True\n2,,0,é,False\n'
    ).encode("utf-8")


def test_format_regime_table_alignment(regime_tables):
    text = format_regime_table(regime_tables["01_base__neutral"])
    lines = text.splitlines()
    assert len(lines) == 23
    assert lines[0].startswith("config")
    assert "0.617" in text
