"""Per-example and per-configuration quality metrics: answer normalization,
token-level F1, exact match, and judge pass-rate aggregation."""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass

from .errors import HarnessError
from .stats import Interval, ResamplePlan, bootstrap_ci

# Characters that survive normalization so flags, paths, and versions keep
# their shape ("--windows-line-endings", "/etc/kubernetes", "v1.29").
_KEEP = set("-_./:")
_DROP_TABLE = str.maketrans(
    {ch: " " for ch in string.punctuation if ch not in _KEEP}
)
_ARTICLES = {"a", "an", "the"}


class MetricsError(HarnessError):
    pass


def normalize_answer(text: str) -> tuple[str, ...]:
    """Lowercase, drop English articles, strip punctuation (keeping internal
    ``- _ . / :``), collapse whitespace. Idempotent."""
    keep = "".join(_KEEP)
    lowered = text.lower().translate(_DROP_TABLE)
    tokens = []
    for tok in lowered.split():
        # A token consisting purely of kept punctuation carries no content.
        if tok.strip(keep) == "":
            continue
        tok = tok.rstrip(keep)
        if tok in _ARTICLES:
            continue
        tokens.append(tok)
    return tuple(tokens)


def token_f1(prediction: str, gold: str) -> float:
    """Harmonic mean of token-multiset precision and recall.

    Both empty -> 1.0; exactly one empty or no overlap -> 0.0.
    """
    pred = normalize_answer(prediction)
    ref = normalize_answer(gold)
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    overlap = sum((Counter(pred) & Counter(ref)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(ref)
    return 2.0 * precision * recall / (precision + recall)


def exact_match(prediction: str, gold: str) -> bool:
    return normalize_answer(prediction) == normalize_answer(gold)


def pass_at_threshold(scores, threshold: int = 4) -> float:
    """Fraction of judge scores >= threshold."""
    scores = list(scores)
    if not scores:
        raise MetricsError("score list must be nonempty")
    if not 1 <= threshold <= 5:
        raise MetricsError(f"threshold must be in 1..5, got {threshold}")
    for s in scores:
        if not 1 <= s <= 5:
            raise MetricsError(f"judge score out of 1..5: {s}")
    return sum(1 for s in scores if s >= threshold) / len(scores)


@dataclass(frozen=True)
class ExampleScore:
    qa_id: str
    f1: float
    exact_match: bool
    correctness: int | None = None
    groundedness: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.f1 <= 1.0:
            raise MetricsError(f"f1 out of [0, 1]: {self.f1}")
        for name in ("correctness", "groundedness"):
            val = getattr(self, name)
            if val is not None and not 1 <= val <= 5:
                raise MetricsError(f"{name} out of 1..5: {val}")


@dataclass(frozen=True)
class MetricSummary:
    config_id: str
    regime_id: str
    n: int
    f1_mean: float
    f1_interval: Interval
    em_rate: float
    mean_latency: float
    grnd_pass: float | None = None
    grnd_interval: Interval | None = None
    corr_pass: float | None = None
    corr_interval: Interval | None = None
    judge_n: int = 0


def summarize_config(
    config_id: str,
    regime_id: str,
    records: list[ExampleScore],
    latencies: dict,
    plan: ResamplePlan,
    pass_threshold: int = 4,
) -> MetricSummary:
    """Aggregate per-example scores into one config row; intervals come from
    the bootstrap. `latencies` maps qa_id -> seconds and must cover every
    record."""
    if not records:
        raise MetricsError("records must be nonempty")
    missing = [r.qa_id for r in records if r.qa_id not in latencies]
    if missing:
        raise MetricsError(f"latency missing for qa_ids: {missing[:5]}")
    f1s = [r.f1 for r in records]
    f1_mean = sum(f1s) / len(f1s)
    em_rate = sum(1 for r in records if r.exact_match) / len(records)
    mean_latency = sum(latencies[r.qa_id] for r in records) / len(records)

    judged = [r for r in records if r.groundedness is not None and r.correctness is not None]
    grnd_pass = grnd_interval = corr_pass = corr_interval = None
    if judged:
        grnd_flags = [1.0 if r.groundedness >= pass_threshold else 0.0 for r in judged]
        corr_flags = [1.0 if r.correctness >= pass_threshold else 0.0 for r in judged]
        grnd_pass = sum(grnd_flags) / len(grnd_flags)
        corr_pass = sum(corr_flags) / len(corr_flags)
        grnd_interval = bootstrap_ci(grnd_flags, plan)
        corr_interval = bootstrap_ci(corr_flags, plan)

    return MetricSummary(
        config_id=config_id,
        regime_id=regime_id,
        n=len(records),
        f1_mean=f1_mean,
        f1_interval=bootstrap_ci(f1s, plan),
        em_rate=em_rate,
        mean_latency=mean_latency,
        grnd_pass=grnd_pass,
        grnd_interval=grnd_interval,
        corr_pass=corr_pass,
        corr_interval=corr_interval,
        judge_n=len(judged),
    )
