"""Non-parametric bootstrap machinery: percentile confidence intervals, and
the pooled delta over matched config pairs, of which a paired delta is the
one-pair case. Every interval comes from the one resampling path `_interval`.

Replicate r of a plan resamples n examples with the indices that numpy's
``default_rng(subseed(master_seed, r)).integers(0, n, size=n)`` draws,
computed here from the specification with numpy's core arithmetic alone, so
no interval depends on how a numpy release implements ``Generator.integers``
(NEP 19 keeps bit-generator streams stable, not the methods that use them):
SeedSequence hashes the subseed into PCG64's 128-bit state and increment
(O'Neill 2014), each 64-bit XSL-RR output is split into its low and then its
high 32-bit half, and each half is mapped to [0, n) with Lemire's (2019)
multiply-shift, a product whose low word is below 2**32 mod n being rejected
for the next half. Results do not depend on execution order or parallelism.

Every replicate's raw halves for one (master_seed, n_resamples) form one
stream per process, grown on demand with all rows stepped together, lanes of
states at a time. The index matrix for one (master_seed, n_resamples, n)
maps a prefix of it once per process, kept in a cache bounded by bytes, and
each statistic is reduced over it in blocks of replicates bounded by bytes,
with the same summation order as a per-replicate loop. The interval ends
are numpy's default ``linear`` quantiles (Hyndman & Fan 1996, type 7),
computed directly from the sorted replicates with numpy's arithmetic.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict, namedtuple

import numpy as np

from .errors import HarnessError

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# Index matrices kept per process, the least recently used evicted first. A
# command cycles through few sample sizes (F1 at each config's n, judge pass
# rates at each judged n); at the paper's R = 1000 and n = 5,144 one matrix
# takes 41 MB. A matrix larger than the bound is built again on each call.
_INDEX_CACHE_BYTES = 64 << 20
# Streams kept per process. A command uses one (master_seed, n_resamples).
_STREAM_CACHE_SIZE = 2
# Bytes of resampled values one gather holds: `_interval` reduces the
# replicates in blocks of at most this size, and of one replicate at least.
_GATHER_BYTES = 8 << 20
# Generator states each replicate steps at once while its stream grows.
_LANES = 16
# Bytes of indices `_index_matrix` maps at once, a block of rows that stays
# in a core's cache between its passes.
_MAP_BYTES = 1 << 18

# SeedSequence's hash constants (pool of four 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if lo > hi:
            raise HarnessError(f"interval lo {lo} > hi {hi}")
        return super().__new__(cls, lo, hi)


class DeltaEstimate(namedtuple("DeltaEstimate", "delta interval significant")):
    __slots__ = ()


class ResamplePlan(
    namedtuple("ResamplePlan", "n_resamples level master_seed", defaults=(1000, 0.95, 0))
):
    # `analysis.load_workspace` checks the knobs: n_resamples >= 1, level in
    # (0, 1) and master_seed in 0..2**64 - 1.
    __slots__ = ()


def subseed(master_seed: int, replicate: int) -> int:
    """Stable 64-bit hash of (master_seed, replicate), the splitmix64 finalizer."""
    x = (master_seed + 0x9E3779B97F4A7C15 * (replicate + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _words(values) -> tuple[np.ndarray, np.ndarray]:
    """The (high, low) uint64 word arrays of Python ints below 2**128."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


def _jumps(lanes: int):
    """(A_j, C_j) for j = 1..lanes, each as `_words`: j steps of PCG64's LCG
    take a state s with increment c to A_j s + C_j c (mod 2**128)."""
    a, c, powers, sums = 1, 0, [], []
    for _ in range(lanes):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        powers.append(a)
        sums.append(c)
    return _words(powers), _words(sums)


_PCG_WORDS = (np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64))
_JUMP_A, _JUMP_C = _jumps(_LANES)


def _muladd(a, b, c, out, scratch):
    """out = a * b + c mod 2**128, for (high, low) pairs of uint64 arrays
    that broadcast to the shape of `out`'s arrays, into which it writes;
    `out` may share a's or c's arrays. `scratch` holds four arrays of that
    shape. Working in place keeps the allocator from returning and faulting
    in a fresh block at every step. The high word of the low words' product
    is Hacker's Delight's mulhi, over 32-bit halves so that no partial sum
    overflows."""
    (ah, al), (bh, bl), (ch, cl), (oh, ol) = a, b, c, out
    a0, a1, t, w = scratch
    b0, b1 = bl & _LOW32, bl >> _U32
    np.bitwise_and(al, _LOW32, out=a0)
    np.right_shift(al, _U32, out=a1)
    np.multiply(a0, b0, out=t)
    t >>= _U32
    np.multiply(a1, b0, out=w)
    t += w  # t = a1 * b0 + (a0 * b0 >> 32)
    np.bitwise_and(t, _LOW32, out=w)
    a0 *= b1
    w += a0  # w = (t & low32) + a0 * b1
    a1 *= b1
    t >>= _U32
    a1 += t
    w >>= _U32
    a1 += w  # a1 = the high word of al * bl
    np.multiply(ah, bl, out=t)
    a1 += t
    np.multiply(al, bh, out=t)
    a1 += t
    np.multiply(al, bl, out=t)
    np.add(t, cl, out=ol)
    a1 += ol < t  # the carry out of the low word
    np.add(a1, ch, out=oh)
    return out


def _xsl_rr(state, out, scratch) -> None:
    """PCG64's 64-bit output of each (high, low) state into `out`: high ^
    low rotated right by the state's top six bits. `scratch` holds two
    arrays of the states' shape."""
    high, low = state
    x, rot = scratch
    np.bitwise_xor(high, low, out=x)
    np.right_shift(high, np.uint64(58), out=rot)
    np.right_shift(x, rot, out=out)
    np.subtract(np.uint64(64), rot, out=rot)
    rot &= np.uint64(63)
    x <<= rot
    np.bitwise_or(out, x, out=out)


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays, each call with the next of
    its running hash constants, which start at `init` and step by `mult`."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hashmix


def _seeded_states(master_seed: int, n_resamples: int):
    """The PCG64 (state, increment) of each replicate's generator just after
    numpy's ``default_rng(subseed(master_seed, r))`` seeds it, each a
    (2, n_resamples) uint64 array of high and low words. SeedSequence mixes the
    subseed's low and high 32-bit words into a pool of four and draws eight
    words from it; PCG64 takes the first four as its initial state and the
    last four as its stream."""
    seeds = np.array([subseed(master_seed, r) for r in range(n_resamples)], dtype=np.uint64)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    # A subseed below 2**32 has one entropy word, but a pool slot past the
    # entropy hashes 0, as a high word of 0 does here.
    zero = np.zeros(n_resamples, dtype=np.uint32)
    low, high = (seeds & _LOW32).astype(np.uint32), (seeds >> _U32).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst]
                mixed -= np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    hashmix = _hashmix(_INIT_B, _MULT_B)
    drawn = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_high, seed_low, seq_high, seq_low = (
        drawn[2 * j] | drawn[2 * j + 1] << _U32 for j in range(4)
    )
    # PCG64's set-seed: the increment is 2 * stream + 1, and the state is
    # stepped once from 0 (to the increment), offset by the initial state
    # (a product by one), and stepped again.
    one = np.uint64(1)
    inc = np.stack([seq_high << one | seq_low >> np.uint64(63), seq_low << one | one])
    state = np.empty((2, n_resamples), dtype=np.uint64)
    scratch = np.empty((4, n_resamples), dtype=np.uint64)
    _muladd((seed_high, seed_low), (np.uint64(0), one), inc, state, scratch)
    _muladd(state, _PCG_WORDS, inc, state, scratch)
    return state, inc


class _Stream:
    """The raw 32-bit draws of every replicate's generator for one
    (master_seed, n_resamples), grown on demand. An array it returns is never
    written again, so readers share it outside the lock that guards growth."""

    def __init__(self, master_seed: int, n_resamples: int):
        self._state, self._inc = _seeded_states(master_seed, n_resamples)
        self._outputs = np.empty((n_resamples, 0), dtype="<u8")
        self._lock = threading.Lock()

    def halves(self, count: int) -> np.ndarray:
        """(n_resamples, >= count) uint32 array whose row r holds replicate
        r's 32-bit draws in order: each 64-bit output's low half, then its
        high half, as ``Generator.integers`` consumes them."""
        with self._lock:
            missing = -(-count // 2) - self._outputs.shape[1]
            if missing > 0:
                self._outputs = self._grow(missing)
            return self._outputs.view("<u4")

    def _grow(self, missing: int) -> np.ndarray:
        """The outputs with at least `missing` more per row."""
        rows, have = self._outputs.shape
        width = min(_LANES, missing)
        blocks = -(-missing // width)
        grown = np.empty((rows, have + blocks * width), dtype="<u8")
        grown[:, :have] = self._outputs
        inc = self._inc[:, :, None]
        jump_a = (_JUMP_A[0][:width], _JUMP_A[1][:width])
        jump_c = (_JUMP_C[0][:width], _JUMP_C[1][:width])
        # Lane j holds the state j + 1 steps past the last one drawn, and
        # every block steps each lane `width` steps on: A_width s + C_width inc.
        scratch = np.empty((4, rows, width), dtype=np.uint64)
        lanes = np.empty((2, rows, width), dtype=np.uint64)
        _muladd(inc, jump_c, (np.uint64(0), np.uint64(0)), lanes, scratch)
        step_c = lanes[:, :, -1:].copy()
        _muladd(self._state[:, :, None], jump_a, lanes, lanes, scratch)
        step_a = (jump_a[0][-1], jump_a[1][-1])
        for block in range(blocks):
            if block:
                _muladd(lanes, step_a, step_c, lanes, scratch)
            start = have + block * width
            _xsl_rr(lanes, grown[:, start : start + width], scratch[:2])
        self._state = lanes[:, :, -1].copy()
        grown.flags.writeable = False
        return grown


@functools.lru_cache(maxsize=_STREAM_CACHE_SIZE)
def _stream(master_seed: int, n_resamples: int) -> _Stream:
    return _Stream(master_seed, n_resamples)


class _ByteCache:
    """Least recently used cache of arrays holding at most `max_bytes` in
    all; an array larger than that is not kept."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.hits = 0
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._items or value.nbytes > self.max_bytes:
                return
            self._items[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > self.max_bytes:
                self.nbytes -= self._items.popitem(last=False)[1].nbytes

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self.nbytes = 0


_INDEX_CACHE = _ByteCache(_INDEX_CACHE_BYTES)


def _index_matrix(master_seed: int, n_resamples: int, n: int) -> np.ndarray:
    """(n_resamples, n) resample indices whose row r is what numpy's
    ``default_rng(subseed(master_seed, r)).integers(0, n, size=n)`` draws,
    for n up to 2**32 (n counts records, so it never comes near). Read-only,
    since every caller with the same key shares it. A matrix numpy cannot
    allocate is a HarnessError naming the resamples and n, raised before
    any draw."""
    key = (master_seed, n_resamples, n)
    idx = _INDEX_CACHE.get(key)
    if idx is not None:
        return idx
    try:
        idx = np.empty((n_resamples, n), dtype=np.intp)
    except (ValueError, MemoryError) as exc:
        raise HarnessError(
            f"cannot allocate the bootstrap index matrix of resamples x n = {n_resamples} x {n}"
        ) from exc
    stream = _stream(master_seed, n_resamples)
    halves = stream.halves(n)[:, :n]
    # Lemire's map: the index is the high word of draw * n, and a draw whose
    # product has a low word below 2**32 mod n is rejected. Rows are mapped
    # in blocks that stay cached from the product to the check.
    products = idx.view(np.uint64)
    threshold = (1 << 32) % n
    rejecting = np.zeros(n_resamples, dtype=bool)
    block = max(1, _MAP_BYTES // products[0].nbytes)
    for start in range(0, n_resamples, block):
        draws, part = halves[start : start + block], products[start : start + block]
        np.multiply(draws, np.uint64(n), out=part, dtype=np.uint64)
        part >>= _U32
        if threshold:
            low = draws * np.uint32(n)
            rejecting[start : start + block] = (low < np.uint32(threshold)).any(axis=1)
    for r in np.flatnonzero(rejecting):
        idx[r] = _accepted(stream, r, n, threshold)
    idx.flags.writeable = False
    _INDEX_CACHE.put(key, idx)
    return idx


def _accepted(stream: _Stream, row: int, n: int, threshold: int) -> np.ndarray:
    """The first n indices that replicate `row`'s draws map to, rejections
    skipped, reading further into its stream as far as it takes."""
    count = n
    while True:
        halves = stream.halves(count)[row]
        products = halves.astype(np.uint64) * np.uint64(n)
        accepted = products[products & _LOW32 >= np.uint64(threshold)] >> _U32
        if accepted.size >= n:
            return accepted[:n]
        count = halves.size + 2 * (n - accepted.size)


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
    examples = examples.ravel()
    block = max(1, _GATHER_BYTES // examples.nbytes)
    means = np.empty(plan.n_resamples)
    for start in range(0, plan.n_resamples, block):
        part = idx[start : start + block]
        gathered = examples[part].view(rows.dtype).reshape(*part.shape, n_rows)
        means[start : start + block] = gathered.mean(axis=1).mean(axis=1)
    return _percentile_interval(means, plan.level)


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
