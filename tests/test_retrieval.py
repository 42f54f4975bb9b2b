import dataclasses
import inspect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragharness import retrieval
from ragharness.dataset import Chunk
from ragharness.retrieval import (
    RETRIEVAL_VARIANTS,
    VARIANTS,
    EmbeddingTable,
    build_sparse_index,
    fuse_rrf,
    score_dense,
    score_sparse,
    select_contexts,
    tokenize,
)

VOCAB = ["pod", "node", "flag", "port", "service", "config", "label", "proxy"]


def ids(ranked):
    return [cid for cid, _ in ranked]


def make_corpus(rng, n_chunks):
    chunks = []
    for i in range(n_chunks):
        words = rng.choices(VOCAB, k=rng.randint(3, 12))
        chunks.append(Chunk(chunk_id=f"c{i:03d}", doc_id="d0", text=" ".join(words)))
    return chunks


def brute_force_bm25(chunks, query, k1=1.2, b=0.75):
    """Independent textbook recomputation, no inverted index."""
    docs = {c.chunk_id: tokenize(c.text) for c in chunks}
    n = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n
    scores = {}
    for cid, toks in docs.items():
        total = 0.0
        for term in tokenize(query):
            df = sum(1 for other in docs.values() if term in other)
            if df == 0:
                continue
            tf = toks.count(term)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avgdl))
        if total != 0.0:
            scores[cid] = total
    return scores


def test_bm25_matches_brute_force_oracle():
    rng = random.Random(7)
    for trial in range(100):
        chunks = make_corpus(rng, rng.randint(2, 15))
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))
        index = build_sparse_index(chunks, [query])
        got = score_sparse(index, query, limit=len(chunks))
        want = brute_force_bm25(chunks, query)
        assert set(ids(got)) == set(want)
        for cid, score in got:
            assert score == pytest.approx(want[cid], abs=1e-12)
        # Ordering: descending score, ties by ascending chunk_id.
        resorted = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        assert got == [(cid, pytest.approx(s)) for cid, s in resorted]


def test_bm25_single_chunk_positive_score():
    index = build_sparse_index([Chunk(chunk_id="only", doc_id="d", text="flag port")], ["flag"])
    result = score_sparse(index, "flag", limit=5)
    assert ids(result) == ["only"]
    assert result[0][1] > 0


def test_bm25_no_matching_terms_is_empty():
    index = build_sparse_index(make_corpus(random.Random(1), 5), ["zzz unknown"])
    assert ids(score_sparse(index, "zzz unknown", limit=5)) == []


def test_tokenize_keeps_flag_shape():
    assert tokenize("Use the --windows-line-endings flag.") == [
        "use",
        "the",
        "--windows-line-endings",
        "flag",
    ]


def test_dense_matches_numpy_oracle():
    rng = np.random.default_rng(11)
    vecs = {f"c{i}": rng.normal(size=6) for i in range(20)}
    table = EmbeddingTable(vectors=dict(vecs), dim=6)
    q = rng.normal(size=6)
    got = score_dense(table, q, limit=20)
    qn = q / np.linalg.norm(q)
    want = {
        cid: float(np.dot(qn, v / np.linalg.norm(v))) for cid, v in vecs.items()
    }
    for cid, score in got:
        assert score == pytest.approx(want[cid], abs=1e-12)
    assert ids(got) == sorted(want, key=lambda c: (-want[c], c))


def test_embedding_table_leaves_the_callers_vectors_as_given():
    vectors = {"c1": [0.0, 3.0, 4.0], "c0": [1, 0, 0]}
    before = {cid: list(vec) for cid, vec in vectors.items()}
    table = EmbeddingTable(vectors=vectors, dim=3)
    assert vectors == before
    assert all(type(vec) is list for vec in vectors.values())
    assert table.chunk_ids == ["c0", "c1"]
    assert table.unit.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]


def loop_bm25(chunks, query, limit, k1=1.2, b=0.75):
    """Reference: BM25 over dict postings, one chunk at a time, in the
    operation order the array index must reproduce bit for bit."""
    postings, doc_len = {}, {}
    for chunk in chunks:
        tokens = tokenize(chunk.text)
        doc_len[chunk.chunk_id] = len(tokens)
        for tok in tokens:
            by_doc = postings.setdefault(tok, {})
            by_doc[chunk.chunk_id] = by_doc.get(chunk.chunk_id, 0) + 1
    n_docs = len(chunks)
    avgdl = sum(doc_len.values()) / n_docs
    scores = {}
    for term in tokenize(query):
        if term not in postings:
            continue
        df = len(postings[term])
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        for cid, tf in sorted(postings[term].items()):
            denom = tf + k1 * (1.0 - b + b * doc_len[cid] / avgdl)
            scores[cid] = scores.get(cid, 0.0) + idf * tf * (k1 + 1.0) / denom
    ordered = sorted(
        ((cid, s) for cid, s in scores.items() if s != 0.0),
        key=lambda item: (-item[1], item[0]),
    )
    return ordered[:limit]


def _unit(vec):
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def loop_dense(vectors, query, limit):
    """Reference: cosine against every chunk, each normalised on its own."""
    q = _unit(np.asarray(query, dtype=float))
    scored = [
        (cid, float(np.dot(q, _unit(np.asarray(vec, dtype=float)))))
        for cid, vec in vectors.items()
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:limit]


def cuts_a_tie(entries, full):
    """True when the entry after the cut scores the same as the last kept."""
    return 0 < len(entries) < len(full) and full[len(entries)][1] == entries[-1][1]


def test_bm25_bit_exact_against_loop_reference():
    rng = random.Random(29)
    cut_ties = 0
    for trial in range(300):
        n = rng.randint(1, 30)
        chunks = make_corpus(rng, n)
        rng.shuffle(chunks)  # the index must not rely on corpus order
        # Repeated and unknown terms included.
        query = " ".join(rng.choices(VOCAB + ["zzz"], k=rng.randint(1, 6)))
        index = build_sparse_index(chunks, [query])
        full = loop_bm25(chunks, query, n)
        for limit in (1, rng.randint(1, n), n, n + 5):
            got = score_sparse(index, query, limit)
            assert got == loop_bm25(chunks, query, limit), (trial, query, limit)
            cut_ties += cuts_a_tie(got, full)
    assert cut_ties >= 20  # the seed exercises cuts through tie groups


def test_bm25_limit_cuts_through_a_tie_group():
    chunks = [
        Chunk(chunk_id=cid, doc_id="d", text="pod node")
        for cid in ("c3", "c1", "c4", "c2")
    ] + [Chunk(chunk_id="c0", doc_id="d", text="node port")]
    index = build_sparse_index(chunks, ["pod", "pod pod", "zzz pod node"])
    for query in ("pod", "pod pod", "zzz pod node"):
        got = score_sparse(index, query, limit=2)
        assert got == loop_bm25(chunks, query, 2)
    assert ids(score_sparse(index, "pod", limit=2)) == ["c1", "c2"]
    # A repeated term counts twice, exactly as the loop adds it twice.
    once = score_sparse(index, "pod", limit=1)[0][1]
    assert score_sparse(index, "pod pod", limit=1)[0][1] == once + once


def test_bm25_idf_is_math_log():
    """(n_docs, df) = (29, 29), (62, 30) and (100, 2) are points where a
    vectorised np.log has been seen to differ from math.log in the last bit."""
    rng = random.Random(3)
    for n_docs, df in ((29, 29), (62, 30), (100, 2)):
        chunks = [
            Chunk(
                chunk_id=f"c{i:03d}",
                doc_id="d",
                text=" ".join(["pod"] * (i < df) + rng.choices(VOCAB[1:], k=rng.randint(1, 9))),
            )
            for i in range(n_docs)
        ]
        index = build_sparse_index(chunks, ["pod node"])
        got = score_sparse(index, "pod node", limit=n_docs)
        assert got == loop_bm25(chunks, "pod node", n_docs)


def test_bm25_term_ids_are_the_queries_tokens_in_order_of_first_appearance():
    queries = ["Node, pod?", "zzz node (flag) pod", "", "... --x"]
    index = build_sparse_index(make_corpus(random.Random(5), 6), queries)
    assert list(index.term_ids) == ["node", "pod", "zzz", "flag", "--x"]
    assert list(index.term_ids.values()) == list(range(5))
    assert len(index.start) == len(index.idf) + 1 == 6


def test_bm25_unindexed_term_raises_key_error():
    """A term the index was not built for is a caller's mistake, never a
    silent zero."""
    index = build_sparse_index(make_corpus(random.Random(2), 5), ["pod"])
    assert score_sparse(index, "pod", limit=5)
    with pytest.raises(KeyError, match="node"):
        score_sparse(index, "pod node", limit=5)


def test_bm25_queries_without_a_token_give_only_empty_lists():
    chunks = make_corpus(random.Random(3), 5)
    queries = ["", "... !!", " - ' "]
    for asked in (queries, []):
        index = build_sparse_index(chunks, asked)
        assert index.term_ids == {} and len(index.doc_pos) == len(index.tf) == 0
        assert index.start.tolist() == [0]
        assert [score_sparse(index, query, limit=5) for query in queries] == [[], [], []]


def test_bm25_query_term_in_no_chunk_has_empty_postings():
    chunks = make_corpus(random.Random(4), 5)
    index = build_sparse_index(chunks, ["zzz pod", "zzz"])
    tid = index.term_ids["zzz"]
    assert index.start[tid] == index.start[tid + 1]
    assert score_sparse(index, "zzz", limit=5) == []
    assert score_sparse(index, "zzz pod", limit=5) == loop_bm25(chunks, "zzz pod", 5)


def test_bm25_scores_do_not_depend_on_the_other_queries():
    """An index built for a set of queries, repeats and unknown terms
    included, scores each of them as an index built for it alone and as the
    loop over every term does: unasked tokens still count toward each
    chunk's length."""
    rng = random.Random(41)
    for trial in range(60):
        chunks = make_corpus(rng, rng.randint(1, 25))
        queries = [
            " ".join(rng.choices(VOCAB[: rng.randint(1, 8)] + ["zzz"], k=rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        index = build_sparse_index(chunks, queries)
        for query in queries:
            limit = rng.randint(1, len(chunks) + 2)
            got = score_sparse(index, query, limit)
            assert got == score_sparse(build_sparse_index(chunks, [query]), query, limit)
            assert got == loop_bm25(chunks, query, limit), (trial, query, limit)


def tie_heavy_vectors(rng, n, dim):
    """Duplicates, scaled copies and zero vectors among random ones."""
    base = rng.integers(-2, 3, size=(max(1, n // 3), dim)).astype(float)
    vectors = {}
    for i in rng.permutation(n):
        kind = rng.random()
        if kind < 0.15:
            vec = np.zeros(dim)
        elif kind < 0.6:
            vec = base[rng.integers(len(base))] * rng.choice([0.5, 1.0, 3.0])
        else:
            vec = rng.normal(size=dim)
        vectors[f"c{i:03d}"] = vec
    return vectors, base


def test_dense_bit_exact_against_loop_reference():
    rng = np.random.default_rng(31)
    cut_ties = 0
    for trial in range(200):
        n = int(rng.integers(1, 40))
        dim = int(rng.choice([1, 3, 5, 8, 64]))
        vectors, base = tie_heavy_vectors(rng, n, dim)
        table = EmbeddingTable(vectors=dict(vectors), dim=dim)
        queries = [rng.normal(size=dim), np.zeros(dim), base[0], -base[-1]]
        for query in queries:
            full = loop_dense(vectors, query, n)
            for limit in (1, int(rng.integers(1, n + 1)), n, n + 5):
                got = score_dense(table, query, limit)
                assert got == loop_dense(vectors, query, limit), (trial, limit)
                cut_ties += cuts_a_tie(got, full)
    assert cut_ties > 50  # the seed exercises cuts through tie groups


def test_dense_zero_query_and_zero_vectors_tie_by_chunk_id():
    vectors = {"c2": np.zeros(3), "c0": np.array([1.0, 0, 0]), "c1": np.zeros(3)}
    table = EmbeddingTable(vectors=dict(vectors), dim=3)
    got = score_dense(table, np.zeros(3), limit=2)
    assert got == [("c0", 0.0), ("c1", 0.0)] == loop_dense(vectors, np.zeros(3), 2)
    got = score_dense(table, np.array([-1.0, 0, 0]), limit=3)
    assert got == loop_dense(vectors, np.array([-1.0, 0, 0]), 3)
    assert ids(got) == ["c1", "c2", "c0"]


def ranked(chunk_ids):
    return [(cid, float(len(chunk_ids) - i)) for i, cid in enumerate(chunk_ids)]


def test_rrf_matches_brute_force_oracle():
    rng = random.Random(13)
    universe = [f"c{i}" for i in range(12)]
    for trial in range(120):
        n_lists = rng.randint(1, 4)
        lists = []
        for _ in range(n_lists):
            lists.append(ranked(rng.sample(universe, rng.randint(1, len(universe)))))
        k_rrf = rng.choice([10.0, 60.0, 97.0])
        fused = fuse_rrf(lists, k_rrf=k_rrf)
        want = {}
        for rl in lists:
            for rank, (cid, _) in enumerate(rl, start=1):
                want[cid] = want.get(cid, 0.0) + 1.0 / (k_rrf + rank)
        assert set(ids(fused)) == set(want)
        for cid, score in fused:
            assert score == pytest.approx(want[cid], abs=1e-12)
        assert ids(fused) == sorted(want, key=lambda c: (-want[c], c))


def test_rrf_single_list_identity():
    rl = ranked(["a", "b", "c"])
    assert ids(fuse_rrf([rl])) == ["a", "b", "c"]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8), min_size=1, max_size=20),
    st.lists(st.sampled_from(VOCAB + ["zzz"]), min_size=1, max_size=5),
    st.sampled_from([1, 3, 8]),
    st.integers(0, 2),
    st.integers(1, 25),
    st.sampled_from([1.0, 60.0]),
    st.integers(0, 2**32 - 1),
)
def test_every_ranked_list_has_unique_ids_and_non_increasing_scores(
    texts, query_words, dim, query_kind, limit, k_rrf, seed
):
    """What the channel scorers and the fusion return is a ranked list: no
    chunk id twice and no score above the one before it, over tie-heavy
    vectors, zero queries and fusions of overlapping lists."""
    chunks = [
        Chunk(chunk_id=f"c{i:03d}", doc_id="d", text=" ".join(words))
        for i, words in enumerate(texts)
    ]
    rng = np.random.default_rng(seed)
    vectors, base = tie_heavy_vectors(rng, len(chunks), dim)
    query_vector = (rng.normal(size=dim), np.zeros(dim), base[0])[query_kind]
    query = " ".join(query_words)
    sparse = score_sparse(build_sparse_index(chunks, [query]), query, limit)
    dense = score_dense(EmbeddingTable(vectors=vectors, dim=dim), query_vector, limit)
    outputs = [sparse, dense, fuse_rrf([dense, sparse], k_rrf), fuse_rrf([dense], k_rrf)]
    if sparse:
        outputs.append(fuse_rrf([sparse, dense, sparse], k_rrf))
    for ranked_list in outputs:
        assert len(set(ids(ranked_list))) == len(ranked_list)
        scores = [score for _, score in ranked_list]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_retrieval_defines_only_its_array_types():
    defined = [
        value
        for _, value in inspect.getmembers(retrieval, inspect.isclass)
        if value.__module__ == retrieval.__name__
    ]
    assert [c.__name__ for c in defined] == ["EmbeddingTable", "SparseIndex"]
    assert not [c for c in defined if dataclasses.is_dataclass(c)]


def test_select_contexts_fuses_with_the_given_k_rrf():
    """"b" sits at rank 4 in both lists and "a" at rank 1 in one: 2/(k+4)
    beats 1/(k+1) at k=60 but not at k=1."""
    dense = ranked(["a", "c1", "c2", "b"])
    sparse = ranked(["d1", "d2", "d3", "b"])
    picked = {
        k_rrf: select_contexts(
            ("reranker_off",),
            dense=dense,
            sparse=sparse,
            retrieve_top_n=4,
            eval_top_k=1,
            k_rrf=k_rrf,
        )[0]
        for k_rrf in (1.0, 60.0)
    }
    assert picked == {1.0: ["a"], 60.0: ["b"]}


KNOBS = dict(retrieve_top_n=4, eval_top_k=2, k_rrf=60.0)


def test_select_context_regime_degeneracy():
    """With a single channel and no reranker, fused regimes reduce to that
    channel's order."""
    sparse = ranked(["a", "b", "c", "d"])
    for variant in ("base", "reranker_off", "hybrid_bm25"):
        assert select_contexts((variant,), sparse=sparse, **KNOBS) == [["a", "b"]]


def test_select_context_rerank_reorders():
    sparse = ranked(["a", "b", "c", "d"])
    picked = select_contexts(
        ("base",), sparse=sparse, rerank_scores={"d": 9.0, "b": 5.0}, **KNOBS
    )
    assert picked == [["d", "b"]]
    # reranker_off ignores rerank scores entirely.
    assert select_contexts(
        ("reranker_off",), sparse=sparse, rerank_scores={"d": 9.0}, **KNOBS
    ) == [["a", "b"]]


def _reference_apply_rerank(candidates, rerank_scores, eval_top_k):
    if rerank_scores is None:
        return candidates[:eval_top_k]
    reordered = sorted(
        candidates,
        key=lambda cid: (-rerank_scores.get(cid, float("-inf")), cid),
    )
    return reordered[:eval_top_k]


def reference_select_context(
    variant, dense=None, sparse=None, rerank_scores=None, *, retrieve_top_n, eval_top_k, k_rrf
):
    """Context selection written out per variant, one branch each for
    dense_only, sparse_only and the fused variants, given a channel the
    variant fuses."""
    if variant == "dense_only":
        candidates = ids(dense)[:retrieve_top_n]
        return _reference_apply_rerank(candidates, rerank_scores, eval_top_k)
    if variant == "sparse_only":
        candidates = ids(sparse)[:retrieve_top_n]
        return _reference_apply_rerank(candidates, rerank_scores, eval_top_k)
    lists = [rl for rl in (dense, sparse) if rl is not None]
    candidates = ids(fuse_rrf(lists, k_rrf))[:retrieve_top_n]
    if variant == "reranker_off":
        return candidates[:eval_top_k]
    return _reference_apply_rerank(candidates, rerank_scores, eval_top_k)


def test_select_context_equals_the_per_variant_reference():
    """Every variant, every channel set holding a channel it fuses, rerank
    maps absent, partial and full, and k_rrf 1 and 60 over random ranked
    lists: the same context as the per-variant reference."""
    rng = random.Random(17)
    universe = [f"c{i:02d}" for i in range(14)]
    reranked = 0
    for trial in range(150):
        dense = ranked(rng.sample(universe, rng.randint(1, len(universe))))
        sparse = ranked(rng.sample(universe, rng.randint(1, len(universe))))
        # Five possible scores, so some rerank ties break by chunk_id.
        values = [rng.choice([-1.0, 0.0, 0.25, 0.5, 2.0]) for _ in universe]
        full = dict(zip(universe, values))
        partial = dict(rng.sample(sorted(full.items()), rng.randint(1, len(universe) - 1)))
        top_n = rng.randint(1, 16)
        top_k = rng.randint(1, top_n)
        channel_sets = ({"dense": dense}, {"sparse": sparse}, {"dense": dense, "sparse": sparse})
        cases = itertools.product(
            RETRIEVAL_VARIANTS, (1.0, 60.0), channel_sets, (None, partial, full)
        )
        for variant, k_rrf, channels, rerank_scores in cases:
            if not channels.keys() & set(VARIANTS[variant][0]):
                continue
            knobs = dict(retrieve_top_n=top_n, eval_top_k=top_k, k_rrf=k_rrf)
            args = dict(channels, rerank_scores=rerank_scores, **knobs)
            got = select_contexts((variant,), **args)[0]
            want = reference_select_context(variant, **args)
            assert got == want, (trial, variant, k_rrf, sorted(channels), rerank_scores)
            reranked += rerank_scores is not None and VARIANTS[variant][1]
    assert reranked


def test_select_context_empty_rerank_map_is_no_rerank_map():
    """A question whose rerank map is {} keeps the unreranked order under
    every reranking variant, as a question without one does; ascending
    chunk_id order differs from the channel order here."""
    dense = ranked(["d", "b", "c", "a"])
    sparse = ranked(["c", "d", "a", "b"])
    variants = [v for v in RETRIEVAL_VARIANTS if VARIANTS[v][1]]
    assert len(variants) == 4
    for variant in variants:
        for channels in ({"dense": dense}, {"sparse": sparse}, {"dense": dense, "sparse": sparse}):
            if not channels.keys() & set(VARIANTS[variant][0]):
                continue
            [empty] = select_contexts((variant,), **channels, rerank_scores={}, **KNOBS)
            assert [empty] == select_contexts((variant,), **channels, **KNOBS), (
                variant, sorted(channels),
            )
            assert empty != ["a", "b"], (variant, sorted(channels))


def test_select_contexts_equals_the_per_regime_reference():
    """Every variant that fuses a channel present, at once, in a random order
    and with repeats, with one random draw of the knobs per call, random
    channel presence and rerank maps absent, empty, partial and full: the
    contexts that the per-variant reference gives regime by regime. An empty
    rerank map is no rerank map."""
    rng = random.Random(23)
    universe = [f"c{i:02d}" for i in range(14)]
    shared = 0
    for trial in range(300):
        dense = ranked(rng.sample(universe, rng.randint(1, len(universe))))
        sparse = ranked(rng.sample(universe, rng.randint(1, len(universe))))
        channels = {}
        while not channels:
            channels = {
                name: rl
                for name, rl in (("dense", dense), ("sparse", sparse))
                if rng.random() < 0.8
            }
        served = [v for v in RETRIEVAL_VARIANTS if channels.keys() & set(VARIANTS[v][0])]
        values = [rng.choice([-1.0, 0.0, 0.25, 0.5, 2.0]) for _ in universe]
        full = dict(zip(universe, values))
        partial = dict(rng.sample(sorted(full.items()), rng.randint(1, len(universe) - 1)))
        rerank_scores = rng.choice([None, {}, partial, full])
        top_n = rng.randint(1, 16)
        knobs = dict(
            retrieve_top_n=top_n,
            eval_top_k=rng.randint(1, top_n),
            k_rrf=rng.choice([1.0, 60.0, 97.0]),
        )
        variants = served + rng.choices(served, k=rng.randint(0, 3))
        rng.shuffle(variants)
        got = select_contexts(variants, **channels, rerank_scores=rerank_scores, **knobs)
        want = [
            reference_select_context(
                variant, **channels, rerank_scores=rerank_scores or None, **knobs
            )
            for variant in variants
        ]
        assert got == want, (trial, variants, sorted(channels), rerank_scores, knobs)
        shared += len(channels) == 2
    assert shared > 100


def test_select_contexts_fuses_each_channel_set_once(monkeypatch):
    """Five regimes fuse a question's two channels once, and single-channel
    regimes none."""
    calls = []

    def counting(lists, k_rrf):
        calls.append(k_rrf)
        return fuse_rrf(lists, k_rrf)

    monkeypatch.setattr("ragharness.retrieval.fuse_rrf", counting)
    dense, sparse = ranked(["a", "b", "c"]), ranked(["c", "d", "a"])
    knobs = dict(retrieve_top_n=3, eval_top_k=2, k_rrf=60.0)
    select_contexts(RETRIEVAL_VARIANTS, dense, sparse, {"d": 1.0}, **knobs)
    assert calls == [60.0]
    calls.clear()
    sparse_variants = [v for v in RETRIEVAL_VARIANTS if "sparse" in VARIANTS[v][0]]
    select_contexts(sparse_variants, None, sparse, **knobs)
    assert calls == []


# Words whose edges carry punctuation, that repeat, or that strip to nothing.
EDGE_WORDS = VOCAB[:4] + [
    "Pod.", "(node)", "--flag", "port:", "a/b", "x_y.", "...", "!!", "-", "'", "pod,pod",
]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(EDGE_WORDS), min_size=1, max_size=12),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.sampled_from(EDGE_WORDS), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_bm25_index_matches_loop_reference_on_edge_tokens(texts, query_words, rng):
    """The one-sort index gives the per-chunk loop's entries, bit for bit,
    over repeated tokens, edge punctuation and tokens that strip to nothing.
    One chunk always holds a real token, so the average length is positive."""
    chunks = [
        Chunk(chunk_id=f"c{i:02d}", doc_id="d", text=" ".join(words))
        for i, words in enumerate(texts + [["pod"]])
    ]
    rng.shuffle(chunks)
    query = " ".join(query_words)
    index = build_sparse_index(chunks, [query])
    for limit in (1, len(chunks), len(chunks) + 3):
        assert score_sparse(index, query, limit) == loop_bm25(chunks, query, limit)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=10), st.integers(0, 2**32))
def test_bm25_deterministic(query_words, seed):
    chunks = make_corpus(random.Random(seed % 1000), 8)
    query = " ".join(query_words)
    index = build_sparse_index(chunks, [query])
    first = score_sparse(index, query, limit=8)
    second = score_sparse(build_sparse_index(chunks, [query]), query, limit=8)
    assert first == second


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([f"c{i}" for i in range(8)]), min_size=1, max_size=8, unique=True),
        min_size=1,
        max_size=4,
    )
)
def test_rrf_scores_bounded(id_lists):
    lists = [ranked(ids) for ids in id_lists]
    fused = fuse_rrf(lists)
    for _, score in fused:
        assert 0 < score <= len(lists) / 61.0
