import concurrent.futures
import sys

import numpy as np
import pytest

from ragharness.errors import HarnessError
from ragharness.stats import (
    _INDEX_CACHE_SIZE,
    _STATE_CACHE_SIZE,
    Interval,
    ResamplePlan,
    _index_matrix,
    _percentile_interval,
    _replicate_indices,
    _seeded_states,
    bootstrap_ci,
    paired_bootstrap_delta,
    pooled_pair_delta,
    subseed,
)


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
        return values[_replicate_indices(plan, r, values.size)].mean()

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
    _index_matrix.cache_clear()
    cold = bootstrap_ci(values, plan)
    hits = _index_matrix.cache_info().hits
    warm = bootstrap_ci(values, plan)
    assert _index_matrix.cache_info().hits == hits + 1
    assert (warm.lo, warm.hi) == (cold.lo, cold.hi)


def test_index_matrix_rows_and_read_only():
    plan = ResamplePlan(n_resamples=20, master_seed=4)
    idx = _index_matrix(plan.master_seed, plan.n_resamples, 13)
    assert idx.dtype == np.intp
    for r in range(plan.n_resamples):
        assert np.array_equal(idx[r], _replicate_indices(plan, r, 13))
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
        assert _index_matrix.cache_info().currsize <= _INDEX_CACHE_SIZE


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
    _index_matrix.cache_clear()
    _seeded_states.cache_clear()

    def rows_match(start):
        for n in sizes[start:] + sizes[:start]:
            idx = _index_matrix(plan.master_seed, plan.n_resamples, n)
            for r in range(plan.n_resamples):
                if not np.array_equal(idx[r], _replicate_indices(plan, r, n)):
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


def test_seeded_states_bounded_and_warm_equals_cold():
    values = np.random.default_rng(10).normal(size=25)
    for seed in range(20):
        plan = ResamplePlan(n_resamples=40, master_seed=2000 + seed)
        _index_matrix.cache_clear()
        cold = bootstrap_ci(values, plan)
        hits = _seeded_states.cache_info().hits
        _index_matrix.cache_clear()
        warm = bootstrap_ci(values, plan)
        assert _seeded_states.cache_info().hits == hits + 1
        assert (warm.lo, warm.hi) == (cold.lo, cold.hi)
        assert _seeded_states.cache_info().currsize <= _STATE_CACHE_SIZE
