import random
from collections import Counter

import pytest

from ragharness import metrics
from ragharness.ingest import RunRecord, RunSet
from ragharness.metrics import (
    ExampleScore,
    MetricsError,
    exact_match,
    normalize_answer,
    pass_at_threshold,
    score_runs,
    token_f1,
)

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


def test_pass_at_threshold():
    assert pass_at_threshold([5, 4, 3, 2], threshold=4) == 0.5
    assert pass_at_threshold([5, 5], threshold=4) == 1.0
    with pytest.raises(MetricsError):
        pass_at_threshold([])
    with pytest.raises(MetricsError):
        pass_at_threshold([6])


def test_score_runs_scores_each_record_once_in_record_order():
    gold = {"q0": "port 6443", "q1": "use --force"}
    records = [
        RunRecord("cfgA", "01", "q1", "use --force", 0.7, correctness=5, groundedness=4),
        RunRecord("cfgB", "01", "q0", "port 6444", 0.5),
        RunRecord("cfgA", "01", "q0", "the port 6443", 0.6),
    ]
    scored = score_runs(RunSet(records=records), gold)
    assert list(scored) == [("cfgA", "01"), ("cfgB", "01")]
    first, second = scored[("cfgA", "01")]
    assert (first.qa_id, second.qa_id) == ("q1", "q0")
    assert first == ExampleScore(
        config_id="cfgA", regime_id="01", qa_id="q1", f1=1.0, exact_match=True,
        latency=0.7, correctness=5, groundedness=4,
    )
    assert second.exact_match and second.correctness is None
    (other,) = scored[("cfgB", "01")]
    assert other.f1 == token_f1("port 6444", "port 6443")
    assert not other.exact_match


def test_score_runs_rejects_a_record_without_gold():
    records = [RunRecord("cfg", "01", "q9", "anything", 0.5)]
    with pytest.raises(MetricsError, match="no gold answer for qa_id 'q9'"):
        score_runs(RunSet(records=records), {"q0": "port"})


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
