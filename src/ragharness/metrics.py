"""Per-record quality metrics: answer normalization, token-level F1 and exact
match, which the run-set loader calls as it reads each record."""

from __future__ import annotations

import string
from collections import Counter
from functools import lru_cache

# Characters that survive normalization so flags, paths, and versions keep
# their shape ("--windows-line-endings", "/etc/kubernetes", "v1.29").
_KEEP = set("-_./:")
_DROP_TABLE = str.maketrans(
    {ch: " " for ch in string.punctuation if ch not in _KEEP}
)
_ARTICLES = {"a", "an", "the"}
# Entries per memo below. Run sets repeat each gold answer once per (config,
# regime) and many answers across configs, so each distinct string, and each
# distinct (answer, gold) pair, is worked out once per process; the bound
# keeps a paper-scale run set from holding every string it has seen.
_MEMO_ENTRIES = 1 << 14


@lru_cache(maxsize=_MEMO_ENTRIES)
def normalize_answer(text: str) -> tuple[str, ...]:
    """Lowercase, drop English articles, strip punctuation (keeping internal
    ``- _ . / :``), collapse whitespace. Idempotent; memoised per string."""
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
    return _pair_f1(prediction, gold)


@lru_cache(maxsize=_MEMO_ENTRIES)
def _pair_f1(prediction: str, gold: str) -> float:
    """`token_f1`, memoised per distinct (prediction, gold) pair."""
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
    """Normalised equality; it reuses the tokens `token_f1` memoised."""
    return normalize_answer(prediction) == normalize_answer(gold)

