"""Non-parametric bootstrap machinery: percentile confidence intervals, and
the pooled delta over matched config pairs, of which a paired delta is the
one-pair case. Every interval comes from the one resampling path `_interval`.

Every replicate draws its resample indices from a generator seeded by a
stable hash of (master_seed, replicate), so results do not depend on
execution order or parallelism. Each replicate's generator is seeded once per
process: its state just after seeding is kept per (master_seed, n_resamples)
and restored before each draw. The replicates' indices for one
(master_seed, n_resamples, n) are drawn once per process into a matrix that
later calls reuse, and each statistic is reduced over it in one vectorised
pass with the same summation order as a per-replicate loop. The interval ends
are numpy's default ``linear`` quantiles (Hyndman & Fan 1996, type 7),
computed directly from the sorted replicates with numpy's arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HarnessError

_MASK64 = (1 << 64) - 1
# Index matrices kept per process. One command cycles through few sample
# sizes (F1 at each config's n, judge pass rates at each judged n), so a few
# entries stay hot, while a sweep over many seeds holds at most this many
# R x n matrices.
_INDEX_CACHE_SIZE = 4
# Seeded replicate states kept per process. A command uses one
# (master_seed, n_resamples); each entry holds n_resamples small state dicts.
_STATE_CACHE_SIZE = 4


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise HarnessError(f"interval lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class DeltaEstimate:
    delta: float
    interval: Interval
    significant: bool


@dataclass(frozen=True)
class ResamplePlan:
    # `analysis.WorkspaceConfig` checks the knobs: n_resamples >= 1, level in
    # (0, 1) and master_seed in 0..2**64 - 1.
    n_resamples: int = 1000
    level: float = 0.95
    master_seed: int = 0


def subseed(master_seed: int, replicate: int) -> int:
    """Stable 64-bit hash of (master_seed, replicate), the splitmix64 finalizer."""
    x = (master_seed + 0x9E3779B97F4A7C15 * (replicate + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _replicate_indices(plan: ResamplePlan, replicate: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(subseed(plan.master_seed, replicate))
    return rng.integers(0, n, size=n)


@functools.lru_cache(maxsize=_STATE_CACHE_SIZE)
def _seeded_states(master_seed: int, n_resamples: int) -> tuple[dict, ...]:
    """The PCG64 state of each replicate's generator just after seeding, as
    ``_replicate_indices`` seeds it. Seeding costs about three times a
    restore, so it is done once per (master_seed, n_resamples). Only the
    state dicts are shared, never a generator, and nothing writes to them."""
    return tuple(
        np.random.default_rng(subseed(master_seed, r)).bit_generator.state
        for r in range(n_resamples)
    )


@functools.lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _index_matrix(master_seed: int, n_resamples: int, n: int) -> np.ndarray:
    """(n_resamples, n) resample indices whose row r is
    ``_replicate_indices(plan, r, n)``. Read-only, since every caller with
    the same key shares it. A matrix numpy cannot allocate is a HarnessError
    naming the resamples and n."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    try:
        idx = np.empty((n_resamples, n), dtype=np.intp)
    except (ValueError, MemoryError) as exc:
        raise HarnessError(
            f"cannot allocate the bootstrap index matrix of resamples x n = {n_resamples} x {n}"
        ) from exc
    for r, state in enumerate(_seeded_states(master_seed, n_resamples)):
        bit_generator.state = state
        idx[r] = rng.integers(0, n, size=n)
    idx.flags.writeable = False
    return idx


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` for a sorted 1-D float array and q in
    [0, 1], with numpy's ``linear`` arithmetic step by step in Python
    floats, so the result is the same float."""
    last = ordered.size - 1
    virtual = last * q
    if virtual >= last:
        # numpy takes index -1 for both neighbours, and gamma from it.
        prev, nxt, gamma = last, last, virtual + 1.0
    else:
        prev = math.floor(virtual)
        nxt, gamma = prev + 1, virtual - prev
    a, b = ordered.item(prev), ordered.item(nxt)
    d = b - a
    return a + d * gamma if gamma < 0.5 else b - d * (1.0 - gamma)


def _percentile_interval(replicate_stats: np.ndarray, level: float) -> Interval:
    alpha = (1.0 - level) / 2.0
    ordered = np.sort(replicate_stats)
    return Interval(_linear_quantile(ordered, alpha), _linear_quantile(ordered, 1.0 - alpha))


def _interval(rows: np.ndarray, plan: ResamplePlan) -> Interval:
    """The percentile bootstrap interval of the mean over `rows` (n_rows, n)
    of each row's mean, where each replicate resamples the same indices in
    every row."""
    n_rows, n = rows.shape
    idx = _index_matrix(plan.master_seed, plan.n_resamples, n)
    # Replicate r of the gather is rows[:, idx[r]] laid out example-major, as
    # numpy lays out rows[:, idx], so every mean sums in the order it always
    # has; viewing each example's n_rows values as one opaque item lets a
    # 1-D fancy index, numpy's fast path, do the gather.
    examples = np.ascontiguousarray(rows.T).view(np.dtype((np.void, rows.itemsize * n_rows)))
    gathered = examples.ravel()[idx].view(rows.dtype).reshape(*idx.shape, n_rows)
    return _percentile_interval(gathered.mean(axis=1).mean(axis=1), plan.level)


def bootstrap_ci(values, plan: ResamplePlan) -> Interval:
    """Percentile bootstrap interval around the mean of `values`, a nonempty
    vector of finite numbers."""
    return _interval(np.asarray(values, dtype=float)[None], plan)


def paired_bootstrap_delta(a, b, plan: ResamplePlan) -> DeltaEstimate:
    """Bootstrap the mean per-example difference of two aligned score vectors:
    the pooled delta of the one pair."""
    return pooled_pair_delta([(a, b)], plan)


def pooled_pair_delta(pairs, plan: ResamplePlan) -> DeltaEstimate:
    """Family-level delta: one shared index resample per replicate, pair mean
    differences averaged across pairs. `pairs` holds at least one (a, b) pair
    of finite score vectors, every vector over the same examples in the same
    order, as `analysis.Analysis.matched` aligns them."""
    rows = np.stack([np.asarray(a, dtype=float) - np.asarray(b, dtype=float) for a, b in pairs])
    interval = _interval(rows, plan)
    significant = interval.lo > 0.0 or interval.hi < 0.0
    return DeltaEstimate(float(rows.mean(axis=1).mean()), interval, significant)
