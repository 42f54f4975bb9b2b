"""Walk through the deterministic retrieval contour on a tiny corpus:
BM25 sparse scoring, cosine dense scoring, RRF fusion, and regime-specific
context selection.

Run: python3 demos/retrieval_fusion_demo.py
"""

import numpy as np

from ragharness.dataset import Chunk
from ragharness.retrieval import (
    EmbeddingTable,
    build_sparse_index,
    fuse_rrf,
    score_dense,
    score_sparse,
    select_contexts,
)

CORPUS = [
    Chunk("c0", "doc0", "The --enable-tracing flag turns on request tracing."),
    Chunk("c1", "doc0", "Set tracing.port to 8080 in the service config."),
    Chunk("c2", "doc1", "Restart the service with svctl apply after editing."),
    Chunk("c3", "doc1", "The tracing exporter batches spans before sending."),
]

QUERY = "Which flag turns on tracing?"


def main():
    index = build_sparse_index(CORPUS, [QUERY])
    sparse = score_sparse(index, QUERY, limit=4)
    print("BM25 ranking:")
    for cid, score in sparse:
        print(f"  {cid}  {score:.4f}")

    rng = np.random.default_rng(0)
    vectors = {c.chunk_id: rng.normal(size=8) for c in CORPUS}
    # Nudge c0 toward the query vector so the dense channel agrees.
    query_vec = vectors["c0"] + 0.1 * rng.normal(size=8)
    table = EmbeddingTable(vectors=vectors, dim=8)
    dense = score_dense(table, query_vec, limit=4)
    print("\nCosine ranking:")
    for cid, score in dense:
        print(f"  {cid}  {score:.4f}")

    print("\nRRF fusion (k=60), each score a sum of 1/(60 + rank) over the lists:")
    for cid, score in fuse_rrf([dense, sparse]):
        print(f"  {cid}  {score:.6f}")

    # A regime is its variant; the knobs are the workspace's, one setting
    # for every regime.
    base, off = select_contexts(
        ("base", "reranker_off"),
        dense=dense,
        sparse=sparse,
        rerank_scores={"c0": 0.99, "c1": 0.42},
        retrieve_top_n=4,
        eval_top_k=2,
        k_rrf=60.0,
    )
    print(f"\nSelected context under the base regime: {base}")
    print(f"Without the reranker: {off}")


if __name__ == "__main__":
    main()
