"""Write a retrieval-scale synthetic workspace: the benchmark's
`retrieval_heavy` workload (two baseline configs, Zipfian chunks of 60 tokens
with rerank scores) at CHUNKS chunks, QUESTIONS test questions and DIM-dim
embeddings, with a vocabulary of three words per chunk and seed 7. DIM 0
writes no embeddings file and one `sparse_only` regime, so BM25 is the only
channel; any other DIM keeps the workload's five regimes, one per retrieval
variant.

Usage: python3 scripts/make_retrieval_workspace.py CHUNKS QUESTIONS DIM OUT
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 7
SPARSE_ONLY = (("01_sparse_only__neutral", "sparse_only", "neutral", 2),)


def generate(chunks: int, questions: int, dim: int, out) -> Path:
    """Write the workspace of `chunks` chunks, `questions` test questions and
    `dim`-dim embeddings (none at 0) under `out`."""
    spec = workloads.WORKLOADS["retrieval_heavy"]
    # Replaced in this process only: the workload keeps its name, and with
    # it the generator's seed words.
    workloads.WORKLOADS["retrieval_heavy"] = dataclasses.replace(
        spec,
        chunks=chunks,
        vocab=3 * chunks,
        questions=questions,
        embedding_dim=dim,
        regimes=spec.regimes if dim else SPARSE_ONLY,
    )
    return workloads.generate("retrieval_heavy", SEED, out)


if __name__ == "__main__":
    args = sys.argv[1:]
    sizes = args[:3]
    if len(args) != 4 or not all(a.isdecimal() for a in sizes) or min(map(int, sizes[:2])) < 1:
        sys.exit("usage: python3 scripts/make_retrieval_workspace.py CHUNKS QUESTIONS DIM OUT")
    chunks, questions, dim = map(int, sizes)
    print(f"retrieval workspace written to {generate(chunks, questions, dim, args[3])}")
