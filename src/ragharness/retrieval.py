"""Deterministic retrieval scoring: BM25 sparse channel, cosine dense channel,
reciprocal rank fusion, rerank-score application, and regime-specific context
selection.

All ties are broken by ascending chunk_id so that identical inputs always
yield identical outputs.

The BM25 index is built for the queries it will score: it holds the
postings of their terms alone, and every chunk's length.

A ranked list is a plain ``[(chunk_id, score)]`` in rank order, with unique
chunk ids and non-increasing scores, and a regime is named by its variant,
a key of `VARIANTS`. The inputs are checked where they are read, so
nothing here checks them again: the vectors by ``analysis._read_embeddings``,
the knobs by ``analysis.load_workspace``, the channels each question has
for its regimes by ``Analysis.embeddings`` and the corpus BM25 indexes by
``Analysis.chunks``.

numpy is imported inside the index builder and the channel scorers only:
every workspace load reads `VARIANTS`, and the commands that never score a
channel should not pay for numpy.
"""

from __future__ import annotations

import itertools
import math
import string
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

    from .dataset import Chunk

# What each retrieval variant does: the channels it fuses, in fusion order,
# and whether it reorders the fused candidates by rerank score. BM25 is the
# only sparse channel, so base and hybrid_bm25 behave alike.
VARIANTS = {
    "base": (("dense", "sparse"), True),
    "reranker_off": (("dense", "sparse"), False),
    "dense_only": (("dense",), True),
    "sparse_only": (("sparse",), True),
    "hybrid_bm25": (("dense", "sparse"), True),
}
RETRIEVAL_VARIANTS = tuple(VARIANTS)
# A regime spec's prompt mode is checked against these and read by nothing.
PROMPT_MODES = ("neutral", "explicit_grounded")

DEFAULT_K_RRF = 60.0
# Okapi BM25 term-frequency saturation and length normalisation.
BM25_K1 = 1.2
BM25_B = 0.75


# The error of a corpus that gives BM25 nothing to index, which
# `Analysis.chunks` raises.
NO_TOKEN_ERROR = "no chunk text has a BM25 token, so the sparse channel cannot be built"


# Punctuation that tokenize keeps inside a token but drops from its right
# edge, and the rest, which it drops from both edges.
_KEEP = "-_./:"
_EDGE = "".join(ch for ch in string.punctuation if ch not in _KEEP)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges.

    Internal ``- _ . / :`` survive, so documentation flags and paths keep
    their shape.
    """
    return [token for token in map(_strip, text.lower().split()) if token]


def _strip(word: str) -> str:
    """The token of one lowercased whitespace-split word; empty if none."""
    return word.strip(_EDGE).rstrip(_KEEP)


class SparseIndex(
    namedtuple("SparseIndex", "chunk_ids term_ids start doc_pos tf idf length_norm")
):
    """BM25 inverted index of the terms of a set of queries, as flat arrays.

    ``term_ids`` maps each of the queries' tokens alone to its id, in order
    of first appearance. ``chunk_ids`` is sorted ascending, so a chunk's
    position is its tie rank. ``start`` holds the CSR offsets into
    ``doc_pos`` and ``tf``, one per term id plus one: the postings of term id
    ``t`` are ``doc_pos[start[t]:start[t + 1]]`` (ascending positions) with
    term frequencies ``tf`` at the same offsets; a query term that no chunk
    holds has none. ``idf`` is per term id and ``length_norm``, k1 * (1 - b
    + b * dl / avgdl), per position. Chunk lengths count every token, asked
    for or not.
    """

    __slots__ = ()


# The word id of a word that strips to nothing, and of a token no query holds.
_NO_TOKEN = -1
_UNASKED = -2


def build_sparse_index(corpus: Iterable[Chunk], queries: list[str]) -> SparseIndex:
    """Index the chunks of `corpus` for scoring the texts `queries` by BM25.

    Some chunk text has a token (`Analysis.chunks` checks that of every
    corpus a regime fuses the sparse channel over). Only the queries' terms
    get ids and postings, so `score_sparse` takes these queries alone; the
    scores are those of an index of every term.
    """
    import numpy as np

    term_ids: dict[str, int] = {}
    for query in queries:
        for term in tokenize(query):
            term_ids.setdefault(term, len(term_ids))
    chunks = sorted(corpus, key=lambda chunk: chunk.chunk_id)
    n_docs = len(chunks)
    # Each distinct lowercased word is stripped once, to its term id,
    # _NO_TOKEN or _UNASKED; tokenize would strip every occurrence.
    word_ids: dict[str, int] = {}
    chunk_words = []
    for chunk in chunks:
        words = chunk.text.lower().split()
        for word in set(words).difference(word_ids):
            token = _strip(word)
            word_ids[word] = term_ids.get(token, _UNASKED) if token else _NO_TOKEN
        chunk_words.append(list(map(word_ids.__getitem__, words)))
    del word_ids
    doc_len = np.array(
        [len(ids) - ids.count(_NO_TOKEN) for ids in chunk_words], dtype=np.int64
    )
    n_asked = [len(ids) - ids.count(_NO_TOKEN) - ids.count(_UNASKED) for ids in chunk_words]
    ids = np.fromiter(
        itertools.chain.from_iterable(chunk_words),
        dtype=np.int64,
        count=sum(map(len, chunk_words)),
    )
    del chunk_words
    # One key per asked token, term id major and position minor: one sort of
    # the keys groups each term's postings in ascending position order, and
    # the run length of each distinct key is that posting's term frequency.
    # The arithmetic runs in place, so few large temporaries outlive the
    # build.
    keys = ids[ids >= 0]
    del ids
    keys *= n_docs
    keys += np.repeat(np.arange(n_docs, dtype=np.int64), n_asked)
    keys.sort()
    bounds = np.empty(len(keys) + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    tf = np.diff(bounds)
    keys = keys[bounds[:-1]]
    del bounds
    doc_pos = keys % n_docs
    keys //= n_docs  # each posting's term id
    df = np.bincount(keys, minlength=len(term_ids))
    del keys
    start = np.zeros(len(term_ids) + 1, dtype=np.int64)
    np.cumsum(df, out=start[1:])
    avgdl = int(doc_len.sum()) / n_docs
    # +1 inside the log keeps IDF positive for very common terms, so a zero
    # score always means "no query term present". math.log, not np.log, which
    # may differ in the last bit.
    idf = np.array(
        [math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0) for d in df.tolist()]
    )
    return SparseIndex(
        chunk_ids=[chunk.chunk_id for chunk in chunks],
        term_ids=term_ids,
        start=start,
        doc_pos=doc_pos,
        tf=tf,
        idf=idf,
        length_norm=BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / avgdl),
    )


def score_sparse(index: SparseIndex, query: str, limit: int) -> list[tuple[str, float]]:
    """Top `limit` chunks by Okapi BM25; zero-scoring chunks are omitted.

    `query` must be one of the queries `index` was built for: a term the
    index has no id for raises KeyError, never a silent zero. Each query
    token, repeats included, adds its term's contribution in query order
    with the same operations as a per-chunk loop, so scores are the same
    floats; ties break by ascending chunk_id. `limit` is at least 1
    (`analysis.load_workspace` checks ``retrieve_top_n``).
    """
    import numpy as np

    scores = np.zeros(len(index.chunk_ids))
    k1_plus_1 = BM25_K1 + 1.0
    for term in tokenize(query):
        tid = index.term_ids[term]
        lo, hi = index.start[tid], index.start[tid + 1]
        pos, tf = index.doc_pos[lo:hi], index.tf[lo:hi]
        scores[pos] += index.idf[tid] * tf * k1_plus_1 / (tf + index.length_norm[pos])
    hit = np.flatnonzero(scores)
    if len(hit) > limit:
        # Only a hit scoring at least the limit-th best can rank, and a tie
        # group across the cut is kept whole, so the sort below still breaks
        # it by chunk_id.
        hit_scores = scores[hit]
        cut = len(hit) - limit
        hit = hit[hit_scores >= np.partition(hit_scores, cut)[cut]]
    # A stable sort of ascending positions keeps equal scores in chunk_id order.
    top = hit[np.argsort(-scores[hit], kind="stable")[:limit]]
    ids = [index.chunk_ids[i] for i in top.tolist()]
    return list(zip(ids, scores[top].tolist()))


class EmbeddingTable:
    """Chunk embeddings sharing one dimension; query vectors live elsewhere.

    ``unit`` holds each of ``vectors`` (chunk_id -> list or array, read only
    here and left as given) scaled to unit norm (zero vectors stay zero), one
    row per entry of the ascending ``chunk_ids``.
    """

    def __init__(self, vectors: dict, dim: int):
        import numpy as np

        self.dim = dim
        self.chunk_ids = sorted(vectors)
        self.unit = np.empty((len(self.chunk_ids), dim))
        # Row by row: a norm taken along an axis of the matrix may round
        # differently from np.linalg.norm of one vector.
        for row, cid in zip(self.unit, self.chunk_ids):
            row[:] = _unit(np.asarray(vectors[cid], dtype=float))


def _unit(vec: np.ndarray) -> np.ndarray:
    import numpy as np

    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


# Every unit row and the unit query have norm at most ~1, so a matrix-vector
# product differs from the per-row dot by at most about dim * 2**-52; this
# margin keeps every row the exact scores could rank into the top `limit`.
_SHORTLIST_MARGIN = 1e-9


def score_dense(table: EmbeddingTable, query_vector, limit: int) -> list[tuple[str, float]]:
    """Top `limit` chunks by cosine similarity, ties by ascending chunk_id.

    One matrix-vector product shortlists the candidates; each is rescored
    with a per-row dot product, so scores are the same floats as scoring
    every chunk on its own. `limit` is at least 1, as for `score_sparse`.
    """
    import numpy as np

    q = _unit(np.asarray(query_vector, dtype=float))
    n = len(table.chunk_ids)
    if n > limit:
        approx = table.unit @ q
        kth = np.partition(approx, n - limit)[n - limit]
        rows = np.flatnonzero(approx >= kth - _SHORTLIST_MARGIN).tolist()
    else:
        rows = range(n)
    scored = [(table.chunk_ids[i], float(np.dot(q, table.unit[i]))) for i in rows]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:limit]


def fuse_rrf(lists: list, k_rrf: float = DEFAULT_K_RRF) -> list[tuple[str, float]]:
    """Merge ranked lists: fused score = sum over lists of 1/(k_rrf + rank).
    `k_rrf` is positive and finite (`analysis.load_workspace` checks it)."""
    ranks: dict[str, list[int]] = {}
    for ranked in lists:
        for rank, (cid, _) in enumerate(ranked, start=1):
            ranks.setdefault(cid, []).append(rank)
    fused = {cid: sum(1.0 / (k_rrf + rank) for rank in found) for cid, found in ranks.items()}
    return sorted(fused.items(), key=lambda item: (-item[1], item[0]))


def select_contexts(
    variants,
    dense: list | None = None,
    sparse: list | None = None,
    rerank_scores: dict | None = None,
    *,
    retrieve_top_n: int,
    eval_top_k: int,
    k_rrf: float,
) -> list[list[str]]:
    """The eval_top_k context chunk ids of one question under each variant
    of `variants`, in order; the three knobs apply to every variant.

    Of the channels a variant fuses, those the question has are fused by RRF
    (one alone keeps its order) and cut to retrieve_top_n. A reranking variant
    then sorts them by rerank score, unscored ones last, ties by chunk_id; a
    question with no or an empty rerank map keeps the unreranked order. Each
    distinct set of channels present is fused and cut once and shared by the
    regimes that name it; only the rerank is per regime.

    Every variant fuses at least one channel the question has:
    `Analysis.embeddings` checks that for every test question and regime.
    """
    given = {"dense": dense, "sparse": sparse}
    fused: dict[tuple, list[str]] = {}
    contexts = []
    for variant in variants:
        channels, reranks = VARIANTS[variant]
        present = tuple(name for name in channels if given[name] is not None)
        if present not in fused:
            lists = [given[name] for name in present]
            ranked = lists[0] if len(lists) == 1 else fuse_rrf(lists, k_rrf)
            fused[present] = [cid for cid, _ in ranked[:retrieve_top_n]]
        candidates = fused[present]
        if reranks and rerank_scores:
            candidates = sorted(candidates, key=lambda c: (-rerank_scores.get(c, -math.inf), c))
        contexts.append(candidates[:eval_top_k])
    return contexts
