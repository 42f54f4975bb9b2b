"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion. Criteria 1-5, 10, 11 feed the published tables as fixtures;
6-9 are oracle/property checks; 12 is the end-to-end smoke run."""

import random
import shutil
import time

import numpy as np
import pytest

from ragharness import metrics
from ragharness.cli import main
from ragharness.ingest import ErrorLabel
from ragharness.lora_grid import display_id, enumerate_grid, param_matched_pairs, parse_config_id
from ragharness.metrics import exact_match, normalize_answer, token_f1
from ragharness.pareto import pareto_front
from ragharness.report import (
    ablation_summary,
    error_counts,
    scheme_wins,
    topk_summary,
)
from ragharness.retrieval import fuse_rrf
from ragharness.stats import ResamplePlan, bootstrap_ci, paired_bootstrap_delta
from tests.conftest import SMOKE_WORKSPACE
from tests.test_lora_grid import (
    LLAMA_3B,
    LLAMA_8B,
    attention_dims,
    pair_ranks,
    trainable_params,
)
from tests.test_metrics import oracle_f1
from tests.test_pareto import oracle_front, random_points
from tests.test_stats import replicate_indices


def test_criterion_01_pareto_runtime_front(regime_tables):
    start = time.perf_counter()
    rows = regime_tables["01_base__neutral"]
    assert len(rows) == 22
    points = [(r.config, r.f1, {"latency": r.latency}) for r in rows]
    front = {config_id for config_id, _, _ in pareto_front(points, ("latency",))}
    assert front == {"3B r64 qv_only", "8B r64 qv_only"}
    assert time.perf_counter() - start < 1.0


def test_criterion_02_training_fronts(training_front_rows):
    start = time.perf_counter()
    points = [
        (
            r["config"],
            r["f1"],
            {"training_time": r["train_min"], "training_vram": r["train_vram_gb"]},
        )
        for r in training_front_rows
    ]
    time_front = {config_id for config_id, _, _ in pareto_front(points, ("training_time",))}
    vram_front = {config_id for config_id, _, _ in pareto_front(points, ("training_vram",))}
    want_time = {
        r["config"] for r in training_front_rows if "time" in r["front"]
    }
    want_vram = {
        r["config"] for r in training_front_rows if "vram" in r["front"]
    }
    assert time_front == want_time == {
        "3B r32 qv_only", "3B r64 qv_only", "8B r16 qv_only", "8B r64 qv_only"
    }
    assert vram_front == want_vram
    assert len(vram_front) == 8
    assert all(parse_config_id(c)[1] == "qv_only" for c in time_front | vram_front)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_ablation_summary(regime_tables):
    start = time.perf_counter()
    summary = ablation_summary(regime_tables)
    assert len(summary) == 10
    assert all(best_f1_config == "8B r64 qv_only" for _, best_f1_config, *_ in summary)
    assert all(same_point == 0 for *_, same_point in summary)
    wins = scheme_wins(summary)
    assert wins["f1"] == {"qv_only": 10}
    assert wins["grnd"] == {"qv_only": 8, "full_attention": 2}
    full_wins = {
        regime_id
        for regime_id, _, _, best_grnd_config, _, _ in summary
        if parse_config_id(best_grnd_config)[1] == "full_attention"
    }
    assert full_wins == {"07_sparse_only__neutral", "08_sparse_only__explicit_grounded"}
    assert time.perf_counter() - start < 1.0


def test_criterion_04_param_matched_pairing():
    start = time.perf_counter()
    grid = enumerate_grid(("3B", "8B"), (4, 8, 16, 32, 64))
    pairs = param_matched_pairs([display_id(*c) for c in grid])
    assert len(pairs) == 8
    for base in ("3B", "8B"):
        ranks = sorted(pair_ranks(p) for p in pairs if parse_config_id(p[1])[0] == base)
        assert ranks == [(8, 4), (16, 8), (32, 16), (64, 32)]
    assert all(pair_ranks(p)[0] != 4 for p in pairs)
    # Equal counts on square projections and on the paper's grouped-query models.
    for n_layers, hidden, kv_width in ((4, 32, None), LLAMA_3B, LLAMA_8B):
        dims = attention_dims(hidden, kv_width)
        for pair in pairs:
            qv_rank, full_rank = pair_ranks(pair)
            assert trainable_params(n_layers, dims, qv_rank, "qv_only") == trainable_params(
                n_layers, dims, full_rank, "full_attention"
            )
    assert time.perf_counter() - start < 1.0


def test_criterion_05_grid_and_alpha_rule(capsys):
    grid = enumerate_grid(("3B", "8B"), (4, 8, 16, 32, 64))
    assert len(grid) == 22
    # The listing's rank and alpha columns, one row per config.
    assert main(["grid", "--bases", "3B,8B", "--ranks", "4,8,16,32,64"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:23]]
    assert {int(r[2]): int(r[3]) for r in rows if r[1] != "baseline"} == {
        4: 8, 8: 16, 16: 32, 32: 64, 64: 128
    }


def test_criterion_06_token_f1_oracle():
    words = ["port", "6443", "--flag", "the", "a", "node.spec", "kubectl", "apply"]
    rng = random.Random(2024)
    for _ in range(120):
        pred = " ".join(rng.choices(words, k=rng.randint(0, 9)))
        gold = " ".join(rng.choices(words, k=rng.randint(0, 9)))
        want = oracle_f1(normalize_answer(pred), normalize_answer(gold))
        assert abs(token_f1(pred, gold) - want) <= 1e-12
    assert token_f1("one two three four five", "one two three") == pytest.approx(
        0.75, abs=1e-15
    )


def test_criterion_06_memoised_scores_equal_the_uncached_oracle():
    """F1 and EM stay exact through the memos while entries are evicted:
    more distinct strings and pairs than a memo holds, each seen repeatedly,
    against normalisation without the memo."""
    words = ["port", "6443", "--flag", "the", "a", "node.spec", "kubectl", "Apply."]
    rng = random.Random(606)
    golds = [" ".join(rng.choices(words, k=rng.randint(0, 5)) + [f"g{i}"]) for i in range(50)]
    size = metrics._MEMO_ENTRIES * 5 // 4
    # Every fifth answer restates a gold in another case with an article and
    # a full stop, so exact matches occur too.
    answers = [
        f"The {golds[i % 50].upper()}." if i % 5 == 0
        else " ".join(rng.choices(words, k=rng.randint(0, 6)) + [f"n{i}"])
        for i in range(size)
    ]
    pairs = [
        (answer, golds[i % 50] if i % 5 == 0 else rng.choice(golds))
        for i, answer in enumerate(answers)
    ]
    draws = pairs + pairs + rng.choices(pairs, k=size // 2)
    plain = normalize_answer.__wrapped__
    matches = 0
    for pred, gold in draws:
        pred_tokens, gold_tokens = plain(pred), plain(gold)
        assert token_f1(pred, gold) == oracle_f1(pred_tokens, gold_tokens)
        assert exact_match(pred, gold) == (pred_tokens == gold_tokens)
        matches += pred_tokens == gold_tokens
    assert matches >= len(draws) // 6
    for memo in (normalize_answer, metrics._pair_f1):
        info = memo.cache_info()
        assert info.currsize == info.maxsize and info.misses > info.maxsize
        assert info.hits > 0


def test_criterion_07_rrf_oracle():
    rng = random.Random(31)
    universe = [f"c{i}" for i in range(15)]
    for _ in range(110):
        lists = []
        for _ in range(rng.randint(1, 5)):
            ids = rng.sample(universe, rng.randint(1, len(universe)))
            lists.append([(cid, float(len(ids) - k)) for k, cid in enumerate(ids)])
        k_rrf = rng.choice([20.0, 60.0, 101.0])
        fused = fuse_rrf(lists, k_rrf=k_rrf)
        want = {}
        for rl in lists:
            for rank, (cid, _) in enumerate(rl, start=1):
                want[cid] = want.get(cid, 0.0) + 1.0 / (k_rrf + rank)
        assert [cid for cid, _ in fused] == sorted(want, key=lambda c: (-want[c], c))
        for cid, score in fused:
            assert abs(score - want[cid]) <= 1e-12
    single = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    assert [cid for cid, _ in fuse_rrf([single])] == ["a", "b", "c"]


def test_criterion_08_dominance_oracle():
    rng = random.Random(77)
    for trial in range(100):
        points, axes = random_points(rng, rng.randint(1, 200), rng.randint(1, 4))
        got = {id(p) for p in pareto_front(points, axes)}
        want = {id(p) for p in oracle_front(points, axes)}
        assert got == want, f"trial {trial} mismatch"


def test_criterion_09_bootstrap_properties():
    start = time.perf_counter()
    # Constant-input degeneracy.
    iv = bootstrap_ci([0.25] * 40, ResamplePlan(n_resamples=200))
    assert iv.lo == iv.hi == pytest.approx(0.25)
    # Paired constant-shift collapse.
    base = np.linspace(0, 1, 60)
    est = paired_bootstrap_delta(base + 0.03, base, ResamplePlan(n_resamples=200))
    assert est.interval.lo == pytest.approx(0.03)
    assert est.interval.hi == pytest.approx(0.03)
    # Determinism under fixed seed, independent of replicate scheduling.
    import concurrent.futures

    values = np.random.default_rng(12).normal(size=100)
    plan = ResamplePlan(n_resamples=300, master_seed=5)
    sequential = bootstrap_ci(values, plan)
    for workers in (2, 6):
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            means = np.fromiter(
                pool.map(
                    lambda r: values[replicate_indices(plan, r, values.size)].mean(),
                    range(plan.n_resamples),
                ),
                dtype=float,
            )
        alpha = (1 - plan.level) / 2
        lo, hi = np.quantile(means, [alpha, 1 - alpha])
        assert (float(lo), float(hi)) == (sequential.lo, sequential.hi)
    # Empirical 95% coverage over 500 synthetic trials of n=200.
    rng = np.random.default_rng(123)
    hits = 0
    for t in range(500):
        data = rng.normal(loc=0.3, scale=1.0, size=200)
        trial_iv = bootstrap_ci(data, ResamplePlan(n_resamples=1000, master_seed=t))
        hits += trial_iv.lo <= 0.3 <= trial_iv.hi
    coverage = hits / 500
    assert 0.92 <= coverage <= 0.97, f"coverage {coverage}"
    assert time.perf_counter() - start < 60.0


def test_criterion_10_error_taxonomy(error_label_records):
    labels = [
        ErrorLabel(qa_id=r["qa_id"], config_id=r["config"], error_class=r["class"])
        for r in error_label_records
    ]
    counts = error_counts(labels)
    assert counts["n"] == 100
    totals = counts["total"]
    assert [totals[c]["count"] for c in (
        "exact_precision_failure", "incomplete_answer", "retrieval_miss", "overclaiming"
    )] == [53, 24, 19, 4]
    assert totals["exact_precision_failure"]["pct"] == 53.0
    per = counts["per_config"]
    assert per["3B r64 qv_only"]["exact_precision_failure"]["count"] == 20
    assert per["8B r64 qv_only"]["exact_precision_failure"]["count"] == 33
    assert per["3B r64 qv_only"]["retrieval_miss"] == {"count": 11, "pct": 22.0}
    assert per["8B r64 qv_only"]["incomplete_answer"] == {"count": 7, "pct": 14.0}


def test_criterion_11_topk_summary(topk_tables):
    rows = topk_summary(topk_tables)
    by_k = {k: (best_f1, latency, front) for k, _, best_f1, latency, front in rows}
    assert by_k[1][:2] == (0.600, 0.604)
    assert by_k[2][:2] == (0.617, 0.655)
    assert by_k[4][:2] == (0.632, 0.719)
    assert all(best_config == "8B r64 qv_only" for _, best_config, *_ in rows)
    assert by_k[1][2] == "8B r64 qv_only"
    assert by_k[2][2] == "3B r64 qv_only;8B r64 qv_only"
    assert by_k[4][2] == "3B r64 qv_only;8B r64 qv_only"


def test_criterion_12_end_to_end_smoke(tmp_path):
    start = time.perf_counter()
    pipeline = (
        ["validate"], ["retrieve"], ["score"], ["stats"], ["pareto"], ["report"]
    )
    outputs = []
    for run_idx in (0, 1):
        ws = tmp_path / f"ws{run_idx}"
        shutil.copytree(SMOKE_WORKSPACE, ws)
        for cmd in pipeline:
            assert main(["--workspace", str(ws), *cmd]) == 0, cmd
        outputs.append(
            {p.name: p.read_bytes() for p in sorted((ws / "out").iterdir())}
        )
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], name
    assert time.perf_counter() - start < 30.0
