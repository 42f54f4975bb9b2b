import random
from collections import Counter

import pytest

from ragharness import metrics
from ragharness.errors import HarnessError
from ragharness.ingest import load_runs
from ragharness.metrics import (
    exact_match,
    normalize_answer,
    token_f1,
)
from tests.test_ingest import record, write_run_set

WORDS = ["the", "port", "6443", "--flag", "kubectl", "edit", "a", "node", "pod.spec"]


def oracle_f1(pred_tokens, gold_tokens):
    """Independent brute-force multiset F1 over already-normalized tokens."""
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = 0
    gold_left = list(gold_tokens)
    for tok in pred_tokens:
        if tok in gold_left:
            gold_left.remove(tok)
            overlap += 1
    if overlap == 0:
        return 0.0
    p = overlap / len(pred_tokens)
    r = overlap / len(gold_tokens)
    return 2 * p * r / (p + r)


def test_token_f1_matches_oracle_on_randomized_pairs():
    rng = random.Random(99)
    for trial in range(150):
        pred = " ".join(rng.choices(WORDS, k=rng.randint(0, 8)))
        gold = " ".join(rng.choices(WORDS, k=rng.randint(0, 8)))
        want = oracle_f1(normalize_answer(pred), normalize_answer(gold))
        assert token_f1(pred, gold) == pytest.approx(want, abs=1e-12)


def test_token_f1_hand_case():
    # P = 3/5, R = 3/3 -> F1 = 0.75 exactly.
    pred = "alpha beta gamma delta epsilon"
    gold = "alpha beta gamma"
    assert token_f1(pred, gold) == pytest.approx(0.75, abs=1e-15)


def test_token_f1_edge_cases():
    assert token_f1("", "") == 1.0
    assert token_f1("something", "") == 0.0
    assert token_f1("", "something") == 0.0
    assert token_f1("apple", "orange") == 0.0


def test_normalize_preserves_flags_paths_versions():
    assert normalize_answer("Use the --windows-line-endings flag!") == (
        "use",
        "--windows-line-endings",
        "flag",
    )
    assert normalize_answer("/etc/kubernetes/manifests") == ("/etc/kubernetes/manifests",)
    assert normalize_answer("version v1.29") == ("version", "v1.29")


def test_normalize_strips_trailing_sentence_punctuation():
    assert normalize_answer("load balancing.") == ("load", "balancing")
    assert normalize_answer("A pod, or a node?") == ("pod", "or", "node")


def test_normalize_drops_articles_and_case():
    assert normalize_answer("The Port") == ("port",)
    assert normalize_answer("an API server") == ("api", "server")


def test_normalize_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        text = " ".join(rng.choices(WORDS + ["(x)", "...", "y;z"], k=rng.randint(0, 7)))
        once = normalize_answer(text)
        assert normalize_answer(" ".join(once)) == once


def test_exact_match_is_normalized_equality():
    assert exact_match("The port 6443.", "port 6443")
    assert not exact_match("port 6444", "port 6443")


def test_load_runs_scores_each_record_once_in_record_order(tmp_path, monkeypatch):
    gold = {"q0": "port 6443", "q1": "use --force"}
    records = [
        record("q1", "cfgA", answer="use --force"),
        record("q0", "cfgB", answer="port 6444"),
        record("q0", "cfgA", answer="the port 6443"),
    ]
    calls = []
    monkeypatch.setattr(metrics, "token_f1", lambda *a: calls.append(a) or token_f1(*a))
    runs = load_runs(write_run_set(tmp_path, records), gold, scored=True).runs["01"]
    assert calls == [
        ("use --force", "use --force"), ("port 6444", "port 6443"), ("the port 6443", "port 6443"),
    ]
    assert (runs["cfgA"].f1s, runs["cfgA"].exact) == ([1.0, 1.0], [True, True])
    assert (runs["cfgB"].f1s, runs["cfgB"].exact) == (
        [token_f1("port 6444", "port 6443")], [False]
    )


def test_load_runs_rejects_a_record_without_gold_before_scoring_it(tmp_path, monkeypatch):
    """A record of a qa_id the gold map lacks is the unknown-qa_id error,
    raised before its answer is scored."""
    runs = write_run_set(tmp_path, [record("q0", answer="port"), record("q9", answer="anything")])
    calls = []
    monkeypatch.setattr(metrics, "token_f1", lambda *a: calls.append(a) or token_f1(*a))
    with pytest.raises(HarnessError, match=r"cfg__regime.jsonl:2: unknown qa_id 'q9'"):
        load_runs(runs, {"q0": "port"}, scored=True)
    assert calls == [("port", "port")]


def test_every_memo_is_bounded():
    memos = [obj for obj in vars(metrics).values() if hasattr(obj, "cache_info")]
    assert {memo.__name__ for memo in memos} == {"normalize_answer", "_pair_f1"}
    for memo in memos:
        assert memo.cache_info().maxsize == metrics._MEMO_ENTRIES


def test_counter_equivalence_sanity():
    # The production implementation uses Counter intersection; confirm it
    # agrees with the removal-based oracle on a tricky multiset case.
    pred = ("a", "a", "b")
    gold = ("a", "b", "b")
    overlap = sum((Counter(pred) & Counter(gold)).values())
    assert overlap == 2
    assert oracle_f1(pred, gold) == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))
