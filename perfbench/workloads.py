"""Deterministic workspace generator for the benchmark workloads.

``generate(name, seed, root)`` writes a complete ragharness workspace for one
workload. The same (name, seed) always gives the same bytes: every random
draw comes from a generator seeded by (workload index, seed), every JSON file
is written with sorted keys, and floats are rounded before they are written.
The seed changes the contents (texts, answers, scores, coverage), never the
sizes, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ERROR_CLASSES = (
    "retrieval_miss",
    "overclaiming",
    "incomplete_answer",
    "exact_precision_failure",
)
RANKS = (4, 8, 16, 32, 64)
BASES = ("3B", "8B")
SYLLABLES = (
    "ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "po",
    "da", "fi", "gu", "he", "jo", "ba", "co", "ly", "wa", "xe",
)


def grid_config_ids() -> list[str]:
    """The 22 display ids of the full LoRA grid plus the two baselines."""
    ids = []
    for base in BASES:
        ids.append(f"{base} baseline")
        for rank in RANKS:
            for scheme in ("qv_only", "full_attention"):
                ids.append(f"{base} r{rank} {scheme}")
    return ids


@dataclass(frozen=True)
class Workload:
    """Generation parameters of one workload; `why` says what it stresses."""

    why: str
    chunks: int
    vocab: int
    chunk_tokens: int
    questions: int
    regimes: tuple  # (id, retrieval variant, prompt mode, top_k in the run records)
    configs: tuple
    resamples: int
    embedding_dim: int = 0  # 0 writes no embeddings file: BM25 is the only channel
    rerank: bool = True
    labels: bool = False
    ragged: bool = False  # coverage varies by regime, judge coverage by config
    retrieve_top_n: int = 20


_FIVE_REGIMES = (
    ("01_base__neutral", "base", "neutral", 2),
    ("02_reranker_off__neutral", "reranker_off", "neutral", 2),
    ("03_dense_only__neutral", "dense_only", "neutral", 2),
    ("04_sparse_only__grounded", "sparse_only", "explicit_grounded", 4),
    ("05_hybrid_bm25__grounded", "hybrid_bm25", "explicit_grounded", 4),
)

WORKLOADS = {
    "grid_analysis": Workload(
        why=(
            "the paper's analysis shape: the 22-config LoRA grid over 5 regimes with full "
            "judge coverage and error labels, so bootstrap CIs and per-record scoring dominate"
        ),
        chunks=60,
        vocab=1500,
        chunk_tokens=40,
        questions=20,
        regimes=_FIVE_REGIMES,
        configs=tuple(grid_config_ids()),
        resamples=30,
        embedding_dim=16,
        labels=True,
    ),
    "retrieval_heavy": Workload(
        why=(
            "1000 Zipfian chunks with 64-dim embeddings and rerank scores, one regime per "
            "retrieval variant and only the two baselines, so retrieve dominates"
        ),
        chunks=1000,
        vocab=6000,
        chunk_tokens=60,
        questions=24,
        regimes=tuple((rid, var, mode, 2) for rid, var, mode, _ in _FIVE_REGIMES),
        configs=("3B baseline", "8B baseline"),
        resamples=30,
        embedding_dim=64,
    ),
    "ragged_coverage": Workload(
        why=(
            "22 configs, a question subset per regime and judge coverage per config, BM25 "
            "only: bootstrap sizes repeat far less and there is no dense channel"
        ),
        chunks=300,
        vocab=4000,
        chunk_tokens=60,
        questions=70,
        regimes=(
            ("01_base__neutral", "base", "neutral", 2),
            ("02_reranker_off__neutral", "reranker_off", "neutral", 2),
            ("03_sparse_only__neutral", "sparse_only", "neutral", 2),
            ("04_hybrid_bm25__neutral", "hybrid_bm25", "neutral", 2),
        ),
        configs=tuple(grid_config_ids()),
        resamples=30,
        ragged=True,
    ),
}


def _word(i: int) -> str:
    """Pronounceable word for vocabulary rank `i`; distinct for distinct i."""
    syl = []
    while True:
        syl.append(SYLLABLES[i % len(SYLLABLES)])
        i //= len(SYLLABLES)
        if i == 0:
            break
    return "".join(syl)


def _jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_profile(config_id: str) -> tuple[float, float]:
    """(accuracy, base latency in s) of a config; larger bases and ranks do better."""
    parts = config_id.split()
    big = parts[0] == "8B"
    acc = 0.50 if big else 0.40
    lat = 1.10 if big else 0.60
    if parts[-1] != "baseline":
        rank = int(parts[1][1:])
        acc += 0.04 * RANKS.index(rank) + (0.05 if parts[-1] == "full_attention" else 0.08)
        lat += 0.01 * RANKS.index(rank)
    return min(acc, 0.95), lat


def generate(name: str, seed: int, root) -> Path:
    """Write the workspace of workload `name` for `seed` under `root`."""
    # Imported here so that importing WORKLOADS does not load numpy: the
    # benchmark process must stay small, because a child's ru_maxrss starts
    # from its parent's peak RSS.
    import numpy as np

    spec = WORKLOADS[name]
    # numpy takes only non-negative seed words; the modulus leaves 0..2**64-1 as is.
    rng = np.random.default_rng([list(WORKLOADS).index(name), seed % 2**64])
    root = Path(root)
    (root / "runs").mkdir(parents=True, exist_ok=True)

    words = [_word(i) for i in range(spec.vocab)]
    zipf = 1.0 / np.arange(1, spec.vocab + 1)
    zipf /= zipf.sum()

    # Corpus: Zipfian filler plus one feature term per chunk that questions
    # about the chunk name; the head of the vocabulary gives BM25 long
    # postings lists, as real documentation does.
    chunks = []
    features = []
    for i in range(spec.chunks):
        feat = _word(spec.vocab + i)
        features.append(feat)
        filler = rng.choice(spec.vocab, size=spec.chunk_tokens, p=zipf)
        text = " ".join(words[w] for w in filler[: spec.chunk_tokens // 2])
        text += (
            f" The --enable-{feat} flag turns on {feat}; set {feat}.port to "
            f"{8000 + i} in service.conf. "
        )
        text += " ".join(words[w] for w in filler[spec.chunk_tokens // 2 :]) + "."
        chunks.append(
            {
                "chunk_id": f"c{i:05d}",
                "doc_id": f"d{i // 8:04d}",
                "text": text,
                "token_count": len(text.split()),
            }
        )
    _jsonl(root / "corpus.jsonl", chunks)

    qa = []
    support = rng.choice(spec.chunks, size=spec.questions, replace=spec.questions > spec.chunks)
    for q, i in enumerate(support):
        i = int(i)
        feat = features[i]
        context = " ".join(words[w] for w in rng.choice(spec.vocab, size=4, p=zipf))
        if q % 2 == 0:
            question = f"Which flag turns on {feat} for {context}?"
            gold, answer_type = f"--enable-{feat}", "exact"
        else:
            question = f"What port should {feat} use when {context}?"
            gold, answer_type = f"{feat}.port is set to {8000 + i}", "normal"
        qa.append(
            {
                "qa_id": f"q{q:04d}",
                "question": question,
                "gold_answer": gold,
                "answer_type": answer_type,
                "split": "test",
                "supporting_chunk_ids": [chunks[i]["chunk_id"]],
            }
        )
    _jsonl(root / "qa.jsonl", qa)

    if spec.embedding_dim:
        dim = spec.embedding_dim
        chunk_vecs = rng.normal(size=(spec.chunks, dim))
        chunk_vecs /= np.linalg.norm(chunk_vecs, axis=1, keepdims=True)
        query_vecs = chunk_vecs[support] + 0.3 * rng.normal(size=(spec.questions, dim))
        query_vecs /= np.linalg.norm(query_vecs, axis=1, keepdims=True)
        _json(
            root / "embeddings.json",
            {
                "dim": dim,
                "chunks": {c["chunk_id"]: v.round(6).tolist() for c, v in zip(chunks, chunk_vecs)},
                "queries": {p["qa_id"]: v.round(6).tolist() for p, v in zip(qa, query_vecs)},
            },
        )
    if spec.rerank:
        rerank = {}
        for pair in qa:
            others = rng.choice(spec.chunks, size=5, replace=False)
            scores = {chunks[int(o)]["chunk_id"]: round(float(s), 4)
                      for o, s in zip(others, rng.uniform(0.1, 0.8, size=5))}
            scores[pair["supporting_chunk_ids"][0]] = 0.95
            rerank[pair["qa_id"]] = scores
        _json(root / "rerank.json", rerank)

    # Coverage: every config answers the regime's questions. In the ragged
    # workload each regime covers its own subset and each config is judged
    # on its own share of it; within a regime all configs share the subset,
    # so param-matched pairs stay aligned.
    all_ids = [p["qa_id"] for p in qa]
    coverage = {}
    for r, (regime_id, *_rest) in enumerate(spec.regimes):
        if spec.ragged:
            size = int(spec.questions * (0.95 - 0.12 * r))
            picked = sorted(rng.choice(spec.questions, size=size, replace=False))
            coverage[regime_id] = [all_ids[j] for j in picked]
        else:
            coverage[regime_id] = all_ids
    judge_share = {
        cfg: (float(rng.uniform(0.3, 1.0)) if spec.ragged else 1.0) for cfg in spec.configs
    }

    gold = {p["qa_id"]: p for p in qa}
    files, judge, labels = [], [], []
    for config in spec.configs:
        acc, base_lat = _config_profile(config)
        for r, (regime_id, _variant, _mode, top_k) in enumerate(spec.regimes):
            records = []
            rolls = rng.uniform(size=(len(coverage[regime_id]), 4))
            for qa_id, roll in zip(coverage[regime_id], rolls):
                pair = gold[qa_id]
                regime_acc = acc - 0.03 * r
                if roll[0] < regime_acc:
                    answer, quality = pair["gold_answer"], 2
                elif roll[0] < regime_acc + 0.2:
                    answer, quality = pair["gold_answer"], 1
                    if " " in answer:
                        answer = answer.rsplit(" ", 1)[0]
                    else:
                        answer = answer.removeprefix("--enable-")
                else:
                    answer, quality = f"the {features[int(roll[1] * spec.chunks)]} setting", 0
                records.append(
                    {
                        "config": config,
                        "regime": regime_id,
                        "qa_id": qa_id,
                        "answer": answer,
                        "latency_s": round(base_lat + 0.05 * top_k + 0.1 * float(roll[2]), 4),
                        "context_ids": pair["supporting_chunk_ids"],
                        "top_k": top_k,
                    }
                )
                if roll[3] < judge_share[config]:
                    judge.append(
                        {
                            "config": config,
                            "regime": regime_id,
                            "qa_id": qa_id,
                            "correctness": int(min(5, 1 + 2 * quality + int(roll[2] * 2))),
                            "groundedness": int(min(5, 2 + quality + int(roll[1] * 3))),
                        }
                    )
                if spec.labels and r == 0 and quality < 2:
                    labels.append(
                        {
                            "qa_id": qa_id,
                            "config": config,
                            "class": ERROR_CLASSES[int(roll[1] * 4) % 4 if quality == 0 else 2],
                        }
                    )
            fname = f"{config.replace(' ', '_')}__{regime_id}.jsonl"
            _jsonl(root / "runs" / fname, records)
            files.append({"path": fname, "sha256": _sha256(root / "runs" / fname)})
    _json(
        root / "runs" / "manifest.json",
        {
            "dataset": {
                "corpus_sha256": _sha256(root / "corpus.jsonl"),
                "qa_sha256": _sha256(root / "qa.jsonl"),
            },
            "regimes": [regime[0] for regime in spec.regimes],
            "seed": seed,
            "files": files,
        },
    )
    _jsonl(root / "judge.jsonl", judge)
    if labels:
        _jsonl(root / "labels.jsonl", labels)

    costs = []
    for config in spec.configs:
        _, lat = _config_profile(config)
        row = {"config": config, "inf_vram_gb": round(6.0 + 10.0 * lat + float(rng.uniform(0, 0.5)), 3)}
        if "baseline" not in config:
            row["train_min"] = round(30.0 + 40.0 * lat + float(rng.uniform(0, 5)), 2)
            row["train_vram_gb"] = round(10.0 + 12.0 * lat + float(rng.uniform(0, 1)), 3)
        costs.append(row)
    _jsonl(root / "costs.jsonl", costs)

    workspace = {
        "corpus": "corpus.jsonl",
        "qa": "qa.jsonl",
        "runs": "runs",
        "judge_scores": "judge.jsonl",
        "costs": "costs.jsonl",
        "out": "out",
        "regimes": [
            {"id": rid, "variant": variant, "prompt_mode": mode}
            for rid, variant, mode, _ in spec.regimes
        ],
        "retrieve_top_n": spec.retrieve_top_n,
        "eval_top_k": 2,
        "k_rrf": 60,
        "resamples": spec.resamples,
        "level": 0.95,
        "pass_threshold": 4,
        "seed": seed,
    }
    if spec.embedding_dim:
        workspace["embeddings"] = "embeddings.json"
    if spec.rerank:
        workspace["rerank_scores"] = "rerank.json"
    if labels:
        workspace["labels"] = "labels.jsonl"
    _json(root / "workspace.json", workspace)
    return root


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python3 perfbench/workloads.py WORKLOAD SEED DIR")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
