"""Segmented sieve for Omega(n), the number of prime factors counted with
multiplicity.

The block sieve never factors an integer one at a time, and it never
divides.  For a block [lo, hi) with root r = isqrt(hi - 1), every prime
power q = p^e < hi with p <= r gives each of its multiples in the block one
hit and the fixed-point weight round(512 * log2 p).  Each n keeps one
uint32 word holding the hits in its low 16 bits and the weight sum in its
high 16 bits, so that one add of the increment 1 + (w << 16) updates both;
the hits are word & 0xFFFF and the sum word >> 16 on any byte order.
Afterwards n = m * c, where m is the part of n made of primes <= r (and of
the pattern primes below) and c is 1 or a single prime above r.  The hits
give Omega(m).  The weight sum is 512 * log2 m up to a rounding error below
32 units, while a prime cofactor adds at least 512 (one bit), so comparing
the sum with 512 * log2 n shows exactly where c > 1; that n gets the final
hit.
The comparison uses one threshold per sub-range [a, a * sqrt 2), so no
logarithm is taken per element.  The result is exact for every n below
2**64; `omega_block` gives the bound.

The prime powers dividing 120120 = 2^3 * 3 * 5 * 7 * 11 * 13, which would
each make a full strided pass over the 4 MB of words of a 2^20 block, are
sieved once into a periodic pattern; every block starts as a copy of that
pattern from lo mod 120120, the pre-sieve step of segmented sieves such as
Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014).  Other prime
powers that hit a block many times are marked with one strided slice
each.  The many large primes of a high block hit it only a few times each;
their hit indices are expanded and folded with np.add.at in one vectorized
pass, the bucket-sieve idea of the same paper written in numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Entries per block.  Large enough to amortize the per-prime slicing
# overhead, small enough that the block's uint32 counter words stay
# cache-friendly.
DEFAULT_SEGMENT_SIZE = 1 << 20

# Fixed-point units per bit of the log accumulator.  An n below 2**64 sums
# less than 64 * 512 + 32 units, which fits its 16-bit counter.
_LOG_SCALE = 512

# A prime power with at least this many hits per block is marked with a
# strided slice; rarer ones go through the vectorized pass, whose per-hit
# cost beats the per-slice overhead below this count.
_DENSE_HITS = 128

# Every block starts from a periodic pattern that already holds the
# increments of the prime powers dividing the period 2^3 * 3 * 5 * 7 * 11 *
# 13 (2, 4, 8, 3, 5, 7, 11 and 13), the ones that cost a block the most
# passes.  The pattern is 120120 uint32 words, 480 KB.
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13)
_PATTERN_PERIOD = 120120

# The vectorized pass expands about block_length / _CHUNK_DIVISOR hits at a
# time, so its index temporaries stay a small fraction of the block.
_CHUNK_DIVISOR = 64


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    @functools.cached_property
    def _reciprocal_sums(self) -> np.ndarray:
        """[1/2, 1/2 + 1/3, ...]: the running sum of 1/p in ascending order,
        read by hall.mertens_sum.  cumsum adds strictly left to right, so
        each entry is the same float as summing its prefix afresh."""
        return np.cumsum(1.0 / self.primes)


@dataclass(frozen=True)
class OmegaSegment:
    """Omega values for one contiguous block: values[i] = Omega(lo + i).

    The range is [lo, hi), half-open.  uint8 storage is safe because
    Omega(n) <= log2(n) < 64 for any n below 2**64.
    """

    lo: int
    hi: int
    values: np.ndarray


def clip_segments(
    source: Iterable[OmegaSegment], x_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, values) covering exactly 1..x_max from any segment source.

    The source must start at 1 and be contiguous; the segment that crosses
    x_max is clipped and nothing after it is read.  Raises ValueError if the
    source skips ahead or ends before x_max.
    """
    expected_lo = 1
    for segment in source:
        if segment.lo != expected_lo:
            raise ValueError(
                f"omega source skipped to {segment.lo}, expected {expected_lo}"
            )
        hi = min(segment.hi, x_max + 1)
        yield segment.lo, segment.values[: hi - segment.lo]
        expected_lo = hi
        if hi > x_max:
            return
    raise ValueError(f"omega source ended at {expected_lo - 1}, need {x_max}")


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes; returns every prime <= limit.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(flags).astype(np.int64))


def omega_single(n: int) -> int:
    """Omega(n) by trial division.

    Slow but independent of the sieve; used as the oracle the block sieve
    is checked against.  Trial divides by 2 and 3, then by 6k +- 1.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    count = 0
    for p in (2, 3):
        while n % p == 0:
            n //= p
            count += 1
    d = 5
    while d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                n //= q
                count += 1
        d += 6
    if n > 1:
        count += 1
    return count


def _omega_trial_division(ns: np.ndarray) -> np.ndarray:
    """Omega(n) for every positive n of an array, by the trial division of
    omega_single done for all n at once: the divisors 2, 3 and 6k +- 1,
    each tried on the n whose unfactored rest r still has d * d <= r.

    Independent of the sieve, like omega_single; the selftest's oracle for
    long runs of n.
    """
    rest = np.array(ns, dtype=np.int64)
    count = np.zeros(len(rest), dtype=np.int64)
    live = np.arange(len(rest))
    pairs = itertools.chain.from_iterable((d, d + 2) for d in itertools.count(5, 6))
    for d in itertools.chain((2, 3), pairs):
        live = live[rest[live] >= d * d]
        if not len(live):
            break
        hit = live[rest[live] % d == 0]
        while len(hit):
            rest[hit] //= d
            count[hit] += 1
            hit = hit[rest[hit] % d == 0]
    return count + (rest > 1)


def omega_block(lo: int, hi: int, table: PrimeTable) -> OmegaSegment:
    """Compute Omega(n) exactly for every n in [lo, hi).

    Parameters
    ----------
    lo, hi : int
        Block bounds, 1 <= lo < hi <= 2**64.
    table : PrimeTable
        Must cover at least isqrt(hi - 1).

    Notes
    -----
    Every prime power q = p^e < hi with p <= r = isqrt(hi - 1) adds one hit
    and the weight w_p = round(512 * log2 p) to each multiple of q in the
    block.  So n = m * c, where m collects the prime factors <= r and the
    cofactor c is 1 or a prime > r (two such primes would exceed n), gets
    Omega(m) hits and a weight sum W with |W - 512 * log2 m| <= Omega(m)/2
    < 32 units, because Omega(m) <= log2 n < 64.

    The powers 2, 4, 8, 3, 5, 7, 11 and 13 of the small-prime pattern add
    their hit and weight whether or not their prime is <= r.  A pattern
    prime p > r has p^2 > hi - 1, so only p itself divides n, and it is
    then the one prime factor of n above r: m takes p in as well, c = 1,
    and the bound on W holds as before.  Every other power q = p^e < hi
    with p <= r is sieved as above, so each prime power dividing n adds
    exactly once.

    The cofactor is not stored.  On a sub-range [a, b) with b <= a * sqrt 2,
    n gets the final hit where W < 512 * log2 a - 128.  This is exact: c = 1
    gives W > 512 * log2 n - 32 >= 512 * log2 a - 32, while c > r >= 1
    adds log2 c >= 1 bit, so W < 512 * (log2 n - 1) + 32
    < 512 * log2 a - 224.  Each side keeps a margin of 95 units or more
    after the threshold is rounded up to an integer; its float64 error is
    below 1e-9 units.  Below 2**64 the hit count stays under 64 and W under
    32800, so both fit their 16-bit halves: an add never carries from one
    into the other, the low byte of a word is the hit count, and
    word < threshold << 16 is the test W < threshold.  The words are read
    by arithmetic, not through a narrower view, so there is no byte-order
    caveat.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    if hi > 1 << 64:
        raise ValueError(f"the sieve works below 2**64, got hi={hi}")
    root = math.isqrt(hi - 1)
    if table.limit < root:
        raise ValueError(
            f"prime table covers {table.limit} but isqrt(hi - 1) = {root}"
        )
    n = hi - lo
    primes = table.primes[: np.searchsorted(table.primes, root, side="right")]
    # Allocated before the counter words, so that freeing those leaves no
    # hole below the result and the process keeps less memory resident.
    values = np.empty(n, dtype=np.uint8)
    words = _tile_pattern(lo, n)
    for q, start, inc in _prime_powers(lo, hi, primes):
        dense = int(np.searchsorted(q, n // _DENSE_HITS, side="right"))
        for step, first, add in zip(
            q[:dense].tolist(), start[:dense].tolist(), inc[:dense].tolist()
        ):
            words[first::step] += add
        _fold_sparse(words, q[dense:], start[dense:], inc[dense:])
    # The low byte of a word is its hit count, which stays below 64.
    np.copyto(values, words, casting="unsafe")
    a = lo
    while a < hi:
        b = min(hi, max(a + 1, math.isqrt(2 * a * a)))
        threshold = math.ceil(_LOG_SCALE * math.log2(a)) - _LOG_SCALE // 4
        # The hit count is below 2**16, so this compares the log sums.
        values[a - lo : b - lo] += words[a - lo : b - lo] < threshold << 16
        a = b
    return OmegaSegment(lo=lo, hi=hi, values=values)


def _increments(primes: np.ndarray) -> np.ndarray:
    """The packed increment 1 + (w_p << 16), w_p = round(512 * log2 p), of
    each prime, as uint32."""
    weights = np.rint(_LOG_SCALE * np.log2(primes)).astype(np.uint32)
    return (weights << 16) + np.uint32(1)


@functools.cache
def _small_prime_pattern() -> np.ndarray:
    """pattern[i] is the sum of the increments of the prime powers q that
    divide _PATTERN_PERIOD and i: the words of every n = i (mod the
    period) after those powers are sieved.  Read-only, shared by all
    blocks of the process."""
    pattern = np.zeros(_PATTERN_PERIOD, dtype=np.uint32)
    for p, inc in zip(_PATTERN_PRIMES, _increments(np.array(_PATTERN_PRIMES)).tolist()):
        q = p
        while _PATTERN_PERIOD % q == 0:
            pattern[::q] += inc
            q *= p
    pattern.flags.writeable = False
    return pattern


def _tile_pattern(lo: int, n: int) -> np.ndarray:
    """The counter words of [lo, lo + n) with the pattern's prime powers
    already sieved: the pattern tiled from lo mod its period."""
    pattern = _small_prime_pattern()
    words = np.empty(n, dtype=np.uint32)
    offset = lo % _PATTERN_PERIOD
    filled = min(n, _PATTERN_PERIOD - offset)
    words[:filled] = pattern[offset : offset + filled]
    while filled < n:
        size = min(n - filled, _PATTERN_PERIOD)
        words[filled : filled + size] = pattern[:size]
        filled += size
    return words


def _prime_powers(
    lo: int, hi: int, primes: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For e = 1, 2, ..., yield the powers q = p^e < hi of the given primes
    that have a multiple in [lo, hi), less those in the small-prime
    pattern: q ascending (uint64), the offset of its first multiple (int64)
    and the packed increment (uint32)."""
    inc = _increments(primes)
    base = power = primes.astype(np.uint64)
    while len(power):
        # The pattern's powers of this level are its smallest entries: the
        # primes up to 13 at e = 1, then 4 and 8.  Slicing them off keeps
        # the arrays views.
        head = power[: len(_PATTERN_PRIMES)]
        skip = int(np.count_nonzero(_PATTERN_PERIOD % head == 0))
        q, q_inc = power[skip:], inc[skip:]
        # (q - 1) - (lo - 1) mod q is the offset of the first multiple.
        start = np.uint64(lo - 1) % q
        np.subtract(q, start, out=start)
        start -= np.uint64(1)
        # Offsets below the block length fit int64 unchanged.  Powers up
        # to the block length all hit; they are passed on without a copy.
        hit = start < hi - lo
        if hit.all():
            yield q, start.view(np.int64), q_inc
        else:
            yield q[hit], start[hit].view(np.int64), q_inc[hit]
        # The primes with p^(e+1) < hi are a prefix, and power * base
        # <= hi - 1 < 2**64 cannot wrap.
        keep = int(np.count_nonzero(power <= np.uint64(hi - 1) // base))
        base, inc, power = base[:keep], inc[:keep], power[:keep] * base[:keep]


def _fold_sparse(
    words: np.ndarray, q: np.ndarray, start: np.ndarray, inc: np.ndarray
) -> None:
    """Add inc[i] at start[i], start[i] + q[i], ... for every i, where each
    q[i] hits the block at most _DENSE_HITS times.

    The hit indices are expanded in chunks of about len(words) /
    _CHUNK_DIVISOR and folded with np.add.at, which, unlike a fancy-index
    +=, adds once for every hit where several powers hit the same index.
    """
    if not len(q):
        return
    n = len(words)
    # A power >= n hits once; stepping by n leaves the block all the same
    # and keeps the index arithmetic in int64.
    step = np.minimum(q, np.uint64(n)).view(np.int64)
    counts = n - 1 - start
    counts //= step
    counts += 1
    ends = np.cumsum(counts)
    chunk = max(n // _CHUNK_DIVISOR, _DENSE_HITS)
    cuts = np.searchsorted(ends, np.arange(chunk, ends[-1], chunk), side="right")
    # No power has more than chunk hits, so every chunk is non-empty and
    # holds fewer than 2 * chunk hits.
    for i, j in itertools.pairwise([0, *cuts.tolist(), len(q)]):
        c = counts[i:j]
        offset = np.cumsum(c) - c
        idx = np.repeat(start[i:j] - offset * step[i:j], c)
        idx += np.arange(len(idx)) * np.repeat(step[i:j], c)
        np.add.at(words, idx, np.repeat(inc[i:j], c))


# Per-process cache so pool workers sieve their prime table once, not once
# per submitted block.
_worker_tables: dict[int, PrimeTable] = {}


def _block_values(lo: int, hi: int, limit: int) -> np.ndarray:
    table = _worker_tables.get(limit)
    if table is None:
        table = primes_up_to(limit)
        _worker_tables[limit] = table
    return omega_block(lo, hi, table).values


def segment_bounds(x_max: int, segment_size: int) -> list[tuple[int, int]]:
    """Half-open block bounds covering 1..x_max in order."""
    return [
        (lo, min(lo + segment_size, x_max + 1))
        for lo in range(1, x_max + 1, segment_size)
    ]


def iter_segments(
    x_max: int,
    *,
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[OmegaSegment]:
    """Stream OmegaSegments covering 1..x_max, in ascending order.

    With workers > 1 the blocks are computed in a process pool but are
    always yielded in block order, so everything downstream produces output
    independent of the worker count.
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    limit = max(2, math.isqrt(x_max))
    if table is None:
        table = primes_up_to(limit)
    elif table.limit < limit:
        raise ValueError(f"prime table covers {table.limit}, need {limit}")
    bounds = segment_bounds(x_max, segment_size)
    if workers == 1:
        for lo, hi in bounds:
            yield omega_block(lo, hi, table)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        bound_iter = iter(bounds)
        for lo, hi in itertools.islice(bound_iter, workers + 2):
            pending.append((lo, hi, pool.submit(_block_values, lo, hi, limit)))
        while pending:
            lo, hi, future = pending.popleft()
            values = future.result()
            nxt = next(bound_iter, None)
            if nxt is not None:
                pending.append(
                    (nxt[0], nxt[1], pool.submit(_block_values, nxt[0], nxt[1], limit))
                )
            yield OmegaSegment(lo=lo, hi=hi, values=values)
