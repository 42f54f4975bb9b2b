import concurrent.futures
import hashlib
import sys

import numpy as np
import pytest

from ragharness import stats
from ragharness.errors import HarnessError
from ragharness.stats import (
    _INDEX_CACHE,
    _INDEX_CACHE_BYTES,
    _STREAM_CACHE_SIZE,
    Interval,
    ResamplePlan,
    _ByteCache,
    _index_matrix,
    _percentile_interval,
    _seeded_states,
    _stream,
    bootstrap_ci,
    paired_bootstrap_delta,
    pooled_pair_delta,
    subseed,
)


def replicate_indices(plan, replicate, n):
    """The oracle: replicate r's resample indices as numpy's own generator
    draws them."""
    return np.random.default_rng(subseed(plan.master_seed, replicate)).integers(0, n, size=n)


def reference_bootstrap(values, plan):
    """Independent resampler: same sub-seed contract, separate code path."""
    arr = np.asarray(values, dtype=float)
    stats = []
    for r in range(plan.n_resamples):
        rng = np.random.default_rng(subseed(plan.master_seed, r))
        idx = rng.integers(0, arr.size, size=arr.size)
        stats.append(arr[idx].mean())
    alpha = (1 - plan.level) / 2
    lo, hi = np.quantile(np.asarray(stats), [alpha, 1 - alpha])
    return float(lo), float(hi)


def reference_pooled(pairs, plan):
    """Loop-based pooled resampler: per replicate, the mean over pairs of each
    pair's resampled mean difference."""
    diff_matrix = np.stack([np.asarray(a, float) - np.asarray(b, float) for a, b in pairs])
    n = diff_matrix.shape[1]
    deltas = []
    for r in range(plan.n_resamples):
        rng = np.random.default_rng(subseed(plan.master_seed, r))
        idx = rng.integers(0, n, size=n)
        deltas.append(diff_matrix[:, idx].mean(axis=1).mean())
    alpha = (1 - plan.level) / 2
    lo, hi = np.quantile(np.asarray(deltas), [alpha, 1 - alpha])
    return float(diff_matrix.mean(axis=1).mean()), float(lo), float(hi)


def test_interval_validation():
    with pytest.raises(HarnessError, match=r"^interval lo 1\.0 > hi 0\.0$"):
        Interval(lo=1.0, hi=0.0)
    interval = Interval(lo=0.1, hi=0.2)
    assert interval.lo <= 0.15 <= interval.hi
    assert not interval.lo <= 0.3 <= interval.hi


def test_bootstrap_matches_reference_resampler():
    rng = np.random.default_rng(5)
    for seed in range(5):
        values = rng.normal(size=60)
        plan = ResamplePlan(n_resamples=200, master_seed=seed)
        iv = bootstrap_ci(values, plan)
        lo, hi = reference_bootstrap(values, plan)
        assert iv.lo == pytest.approx(lo, abs=1e-12)
        assert iv.hi == pytest.approx(hi, abs=1e-12)


def test_constant_input_degenerate_interval():
    iv = bootstrap_ci([0.4] * 30, ResamplePlan(n_resamples=100))
    assert iv.lo == iv.hi == pytest.approx(0.4)


def test_paired_constant_shift_collapses():
    base = np.linspace(0.0, 1.0, 50)
    est = paired_bootstrap_delta(base + 0.07, base, ResamplePlan(n_resamples=100))
    assert est.delta == pytest.approx(0.07)
    assert est.interval.lo == pytest.approx(0.07)
    assert est.interval.hi == pytest.approx(0.07)
    assert est.significant


def test_paired_delta_antisymmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    plan = ResamplePlan(n_resamples=300, master_seed=9)
    ab = paired_bootstrap_delta(a, b, plan)
    ba = paired_bootstrap_delta(b, a, plan)
    assert ab.delta == pytest.approx(-ba.delta, abs=1e-12)
    assert ab.interval.lo == pytest.approx(-ba.interval.hi, abs=1e-12)
    assert ab.interval.hi == pytest.approx(-ba.interval.lo, abs=1e-12)
    assert ab.significant == ba.significant


def test_determinism_across_thread_counts():
    """Per-replicate sub-seeding makes the result independent of how the
    replicate loop is scheduled."""
    rng = np.random.default_rng(3)
    values = rng.normal(size=80)
    plan = ResamplePlan(n_resamples=400, master_seed=17)
    sequential = bootstrap_ci(values, plan)

    def replicate_mean(r):
        return values[replicate_indices(plan, r, values.size)].mean()

    for workers in (1, 2, 8):
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            means = np.fromiter(
                pool.map(replicate_mean, range(plan.n_resamples)), dtype=float
            )
        alpha = (1 - plan.level) / 2
        lo, hi = np.quantile(means, [alpha, 1 - alpha])
        assert lo == pytest.approx(sequential.lo, abs=1e-15)
        assert hi == pytest.approx(sequential.hi, abs=1e-15)


def test_seed_changes_interval():
    rng = np.random.default_rng(4)
    values = rng.normal(size=50)
    a = bootstrap_ci(values, ResamplePlan(n_resamples=200, master_seed=0))
    b = bootstrap_ci(values, ResamplePlan(n_resamples=200, master_seed=1))
    assert (a.lo, a.hi) != (b.lo, b.hi)


def test_subseed_is_stable_and_spread():
    assert subseed(0, 0) == subseed(0, 0)
    seeds = {subseed(0, r) for r in range(1000)}
    assert len(seeds) == 1000


def test_pooled_pair_delta_constant_shifts():
    base = np.linspace(0, 1, 30)
    pairs = [(base + 0.02, base), (base + 0.06, base)]
    est = pooled_pair_delta(pairs, ResamplePlan(n_resamples=100))
    assert est.delta == pytest.approx(0.04)
    assert est.interval.lo == pytest.approx(0.04)
    assert est.interval.hi == pytest.approx(0.04)


def test_pooled_pair_delta_single_pair_matches_paired():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=40), rng.normal(size=40)
    plan = ResamplePlan(n_resamples=200, master_seed=21)
    pooled = pooled_pair_delta([(a, b)], plan)
    paired = paired_bootstrap_delta(a, b, plan)
    assert pooled == paired


@pytest.mark.parametrize("n", [1, 7, 60])
@pytest.mark.parametrize("n_resamples", [1, 200])
def test_vectorised_bootstrap_is_bit_exact(n, n_resamples):
    rng = np.random.default_rng(100 + n)
    plan = ResamplePlan(n_resamples=n_resamples, master_seed=n)
    values = rng.normal(size=n)
    iv = bootstrap_ci(values, plan)
    assert (iv.lo, iv.hi) == reference_bootstrap(values, plan)
    other = rng.normal(size=n)
    est = paired_bootstrap_delta(values, other, plan)
    assert (est.interval.lo, est.interval.hi) == reference_bootstrap(values - other, plan)
    for n_pairs in (1, 3, 9):
        pairs = [(rng.random(size=n), rng.random(size=n)) for _ in range(n_pairs)]
        pooled = pooled_pair_delta(pairs, plan)
        assert (pooled.delta, pooled.interval.lo, pooled.interval.hi) == reference_pooled(
            pairs, plan
        ), n_pairs


def test_index_cache_warm_equals_cold():
    values = np.random.default_rng(8).normal(size=45)
    plan = ResamplePlan(n_resamples=150, master_seed=31)
    _INDEX_CACHE.clear()
    cold = bootstrap_ci(values, plan)
    hits = _INDEX_CACHE.hits
    warm = bootstrap_ci(values, plan)
    assert _INDEX_CACHE.hits == hits + 1
    assert (warm.lo, warm.hi) == (cold.lo, cold.hi)


def test_index_matrix_rows_and_read_only():
    plan = ResamplePlan(n_resamples=20, master_seed=4)
    idx = _index_matrix(plan.master_seed, plan.n_resamples, 13)
    assert idx.dtype == np.intp
    for r in range(plan.n_resamples):
        assert np.array_equal(idx[r], replicate_indices(plan, r, 13))
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 0


# Each matrix exceeds any address space, so numpy refuses it before
# allocating anything: 10**13 x 30 needs 2.13 PiB (MemoryError), and
# 10**30 rows exceed numpy's largest dimension (ValueError).
@pytest.mark.parametrize("n_resamples", [10**13, 10**30])
def test_unallocatable_index_matrix_is_a_harness_error(n_resamples):
    with pytest.raises(
        HarnessError,
        match=rf"^cannot allocate the bootstrap index matrix of resamples x n = {n_resamples} x 30$",
    ):
        bootstrap_ci([0.5] * 30, ResamplePlan(n_resamples=n_resamples))


def test_index_cache_stays_bounded():
    values = np.random.default_rng(9).normal(size=30)
    for seed in range(20):
        bootstrap_ci(values, ResamplePlan(n_resamples=50, master_seed=1000 + seed))
        assert _INDEX_CACHE.nbytes <= _INDEX_CACHE_BYTES
    assert _INDEX_CACHE.nbytes == sum(m.nbytes for m in _INDEX_CACHE._items.values())


def test_byte_cache_evicts_least_recently_used_and_keeps_no_oversized_array():
    cache = _ByteCache(max_bytes=300)
    arrays = {key: np.zeros(12, dtype=np.int64) for key in "abcd"}  # 96 bytes each
    for key in "abc":
        cache.put(key, arrays[key])
    assert cache.nbytes == 288 and cache.get("a") is arrays["a"] and cache.hits == 1
    cache.put("d", arrays["d"])  # evicts b, now the least recently used
    assert cache.get("b") is None and cache.nbytes == 288
    assert all(cache.get(key) is arrays[key] for key in "acd")
    cache.put("e", np.zeros(38, dtype=np.int64))  # 304 bytes: not kept, nothing evicted
    assert cache.get("e") is None and cache.nbytes == 288
    cache.clear()
    assert cache.nbytes == 0 and cache.get("a") is None


def test_percentile_interval_is_np_quantile():
    """The direct percentiles are the floats np.quantile gives, over random,
    tied, constant and near-constant replicate statistics."""
    rng = np.random.default_rng(12)
    levels = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    for case in range(6000):
        n = int(rng.integers(1, 1201))
        kind = case % 4
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 1:
            x = rng.integers(0, 4, size=n).astype(float)
        elif kind == 2:
            x = np.full(n, rng.normal())
        else:
            x = 0.3 + 1e-12 * rng.normal(size=n)
        level = levels[case % len(levels)]
        alpha = (1 - level) / 2
        lo, hi = np.quantile(x, [alpha, 1 - alpha])
        iv = _percentile_interval(x, level)
        assert (iv.lo, iv.hi) == (lo, hi), (case, n, level)


def test_index_matrix_from_threads_matches_replicates():
    """Cold caches filled from more threads than cores: every row is still
    the replicate's own draw, so no generator state leaks between calls."""
    plan = ResamplePlan(n_resamples=40, master_seed=77)
    sizes = list(range(3, 51, 3))
    _INDEX_CACHE.clear()
    _stream.cache_clear()

    def rows_match(start):
        for n in sizes[start:] + sizes[:start]:
            idx = _index_matrix(plan.master_seed, plan.n_resamples, n)
            for r in range(plan.n_resamples):
                if not np.array_equal(idx[r], replicate_indices(plan, r, n)):
                    return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(rows_match, 2 * w) for w in range(8)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def test_stream_grown_from_threads_equals_one_growth():
    """Many small growths of one stream from more threads than cores give the
    draws that one growth gives: no growth is lost, repeated or misplaced."""
    expected = stats._Stream(5, 64).halves(3000)[:, :3000]
    stream = stats._Stream(5, 64)

    def grow(worker):
        for count in range(2 + worker, 3000, 23):
            stream.halves(count)
        return stream.halves(3000)[:, :3000]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(grow, w) for w in range(8)]
            assert all(np.array_equal(f.result(timeout=120), expected) for f in futures)
    finally:
        sys.setswitchinterval(interval)


def test_seeded_states_bounded_and_warm_equals_cold():
    """Each (seed, resamples) is seeded once into a stream that later index
    matrices reuse, and the streams kept stay within their bound."""
    values = np.random.default_rng(10).normal(size=25)
    for seed in range(20):
        plan = ResamplePlan(n_resamples=40, master_seed=2000 + seed)
        _INDEX_CACHE.clear()
        cold = bootstrap_ci(values, plan)
        hits = _stream.cache_info().hits
        _INDEX_CACHE.clear()
        warm = bootstrap_ci(values, plan)
        assert _stream.cache_info().hits == hits + 1
        assert (warm.lo, warm.hi) == (cold.lo, cold.hi)
        assert _stream.cache_info().currsize <= _STREAM_CACHE_SIZE


@pytest.mark.parametrize("master_seed", [0, 1, 7, 12345, 2**40 + 3, 2**64 - 1])
def test_seeded_states_are_the_generator_states(master_seed):
    (state_hi, state_lo), (inc_hi, inc_lo) = _seeded_states(master_seed, 200)
    for r in range(200):
        expected = np.random.default_rng(subseed(master_seed, r)).bit_generator.state["state"]
        assert int(state_hi[r]) << 64 | int(state_lo[r]) == expected["state"], r
        assert int(inc_hi[r]) << 64 | int(inc_lo[r]) == expected["inc"], r


def test_seeded_states_of_a_subseed_below_two_to_the_32():
    """A subseed with a zero high word is seeded as numpy seeds its one word."""
    (state_hi, state_lo), _ = _seeded_states(2**64 - 0x9E3779B97F4A7C15, 1)
    # The splitmix finalizer maps 0 to 0, so replicate 0 of this seed has subseed 0.
    assert subseed(2**64 - 0x9E3779B97F4A7C15, 0) == 0
    expected = np.random.default_rng(0).bit_generator.state["state"]["state"]
    assert int(state_hi[0]) << 64 | int(state_lo[0]) == expected


@pytest.mark.parametrize("master_seed", [0, 1, 7, 12345, 2**40 + 3, 2**64 - 1])
def test_index_matrix_is_generator_integers(master_seed):
    """Every row equals numpy's `integers` for its replicate, over sizes with
    and without rejections, each (seed, resamples) stream serving many n."""
    for n_resamples in (1, 3, 30, 200):
        for n in (1, 2, 3, 7, 20, 41, 66, 257, 1000, 5144, 65537):
            if n_resamples * n > 2_000_000:
                continue
            plan = ResamplePlan(n_resamples=n_resamples, master_seed=master_seed)
            idx = _index_matrix(master_seed, n_resamples, n)
            for r in range(n_resamples):
                assert np.array_equal(idx[r], replicate_indices(plan, r, n)), (n_resamples, n, r)


def test_index_matrix_reads_past_rejections():
    """At n = 1,000,003 every row rejects draws, and so reads further into
    its stream than n draws."""
    plan = ResamplePlan(n_resamples=3, master_seed=11)
    idx = _index_matrix(plan.master_seed, plan.n_resamples, 1_000_003)
    for r in range(plan.n_resamples):
        assert np.array_equal(idx[r], replicate_indices(plan, r, 1_000_003)), r
    # More than the first n draws, rounded up to whole lanes, were read.
    assert _stream(11, 3).halves(1).shape[1] > 1_000_003 + 2 * stats._LANES


# sha256 of the little-endian int64 bytes of three index matrices, recorded
# when the harness began to draw them itself. They hold whatever numpy's
# `Generator.integers` does in a later release.
PINNED_MATRICES = {
    (0, 30, 20): "16b0ae722ff7a3efc6cb6aeb537ce4af4bae5c4fb26ff3ae956704bb35614c9a",
    (7, 1000, 5144): "3e66c5a942ff4b878815dfa704f5a003bdeee40f6c32a71ad0ff3403780383bc",
    (2**64 - 1, 3, 1_000_003): "0bc164b37598fa2efc60c8a67ce6e53e359a00bfe6056bee8daaed7b3abb415c",
}


@pytest.mark.parametrize("key", list(PINNED_MATRICES), ids=lambda key: "x".join(map(str, key)))
def test_index_matrix_bytes_are_pinned(key):
    idx = _index_matrix(*key)
    assert hashlib.sha256(idx.astype("<i8").tobytes()).hexdigest() == PINNED_MATRICES[key]


def test_pooled_pair_delta_matches_reference_at_paper_scale():
    rng = np.random.default_rng(13)
    pairs = [(rng.random(size=5144), rng.random(size=5144)) for _ in range(8)]
    plan = ResamplePlan(n_resamples=1200, master_seed=5)
    pooled = pooled_pair_delta(pairs, plan)
    assert (pooled.delta, pooled.interval.lo, pooled.interval.hi) == reference_pooled(pairs, plan)


@pytest.mark.parametrize("n_rows", [1, 2, 8])
def test_gather_blocks_give_the_same_replicate_means(monkeypatch, n_rows):
    """Blocks of 1, 7 and 64 replicates give each replicate's mean as one
    gather of all replicates does."""
    seen = []
    monkeypatch.setattr(
        stats, "_percentile_interval", lambda means, level: seen.append(means.copy())
    )
    rng = np.random.default_rng(14 + n_rows)
    plan = ResamplePlan(n_resamples=130, master_seed=3)
    for n in (1, 7, 300, 5144):
        rows = rng.random(size=(n_rows, n))
        for block in (plan.n_resamples, 1, 7, 64):
            monkeypatch.setattr(stats, "_GATHER_BYTES", block * n * n_rows * rows.itemsize)
            stats._interval(rows, plan)
        whole, *blocked = seen
        assert all(np.array_equal(whole, means) for means in blocked), n
        seen.clear()
