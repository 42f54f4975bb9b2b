"""Write a paper-scale synthetic workspace: the benchmark's `grid_analysis`
workload (22 configs over 5 regimes, full judge coverage, error labels) at
QUESTIONS test questions, over 1,000 Zipfian chunks (vocabulary 6,000, 60
tokens per chunk) with 64-dim embeddings, R = 1000 resamples and seed 7.
At 5,144 questions, the paper's n, it holds 565,840 run records.

Usage: python3 scripts/make_scale_workspace.py QUESTIONS OUT
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEED = 7


def generate(questions: int, out) -> Path:
    """Write the workspace of `questions` test questions under `out`."""
    # Replaced in this process only: the workload keeps its name, and with
    # it the generator's seed words.
    workloads.WORKLOADS["grid_analysis"] = dataclasses.replace(
        workloads.WORKLOADS["grid_analysis"],
        chunks=1000,
        vocab=6000,
        chunk_tokens=60,
        questions=questions,
        embedding_dim=64,
        resamples=1000,
    )
    return workloads.generate("grid_analysis", SEED, out)


if __name__ == "__main__":
    if len(sys.argv) != 3 or not sys.argv[1].isdecimal() or int(sys.argv[1]) < 1:
        sys.exit("usage: python3 scripts/make_scale_workspace.py QUESTIONS OUT")
    print(f"scale workspace written to {generate(int(sys.argv[1]), sys.argv[2])}")
