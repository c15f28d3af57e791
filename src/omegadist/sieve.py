"""Segmented sieve for Omega(n), the number of prime factors counted with
multiplicity.

The block sieve never factors an integer one at a time, and it never
divides.  For a block [lo, hi) with root r = isqrt(hi - 1), every prime
power q = p^e < hi with p <= r gives each of its multiples in the block one
hit and the fixed-point weight round(512 * log2 p).  Each n keeps two
uint16 counters, the hits and the weight sum, packed in one uint32 word so
that one add updates both.  Afterwards n = m * c, where m is the part of n
made of primes <= r and c is 1 or a single prime above r.  The hits give
Omega(m).  The weight sum is 512 * log2 m up to a rounding error below 32
units, while a prime cofactor adds at least 512 (one bit), so comparing the
sum with 512 * log2 n shows exactly where c > 1; that n gets the final hit.
The comparison uses one threshold per sub-range [a, a * sqrt 2), so no
logarithm is taken per element.  The result is exact for every n below
2**64; `omega_block` gives the bound.

Prime powers that hit a block many times are marked with one strided slice
each.  The many large primes of a high block hit it only a few times each;
their hit indices are expanded and folded with np.add.at in one vectorized
pass, the bucket-sieve idea (Oliveira e Silva, Herzog and Pardi, Math.
Comp. 83, 2014) written in numpy.
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

    The cofactor is not stored.  On a sub-range [a, b) with b <= a * sqrt 2,
    n gets the final hit where W < 512 * log2 a - 128.  This is exact: c = 1
    gives W > 512 * log2 n - 32 >= 512 * log2 a - 32, while c > r >= 1
    adds log2 c >= 1 bit, so W < 512 * (log2 n - 1) + 32
    < 512 * log2 a - 224.  Each side keeps a margin of 95 units or more
    after the threshold is rounded up to an integer; its float64 error is
    below 1e-9 units.  Below 2**64 the hit count stays under 64 and W under
    32800, so both fit their 16-bit counters and a packed add never
    carries from one into the other.
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
    # Allocated before the temporary counters, so that freeing those leaves
    # no hole below the result and the process keeps less memory resident.
    values = np.empty(n, dtype=np.uint8)
    # Column 0 counts hits, column 1 sums log weights.  One uint32 add of a
    # packed increment updates both; neither column overflows, so no carry
    # crosses between them whatever the byte order.
    pairs = np.zeros((n, 2), dtype=np.uint16)
    words = pairs.view(np.uint32).reshape(n)
    for q, start, inc in _prime_powers(lo, hi, primes):
        dense = int(np.searchsorted(q, n // _DENSE_HITS, side="right"))
        for step, first, add in zip(
            q[:dense].tolist(), start[:dense].tolist(), inc[:dense].tolist()
        ):
            words[first::step] += add
        _fold_sparse(words, q[dense:], start[dense:], inc[dense:])
    values[:] = pairs[:, 0]
    logs = pairs[:, 1]
    a = lo
    while a < hi:
        b = min(hi, max(a + 1, math.isqrt(2 * a * a)))
        threshold = math.ceil(_LOG_SCALE * math.log2(a)) - _LOG_SCALE // 4
        values[a - lo : b - lo] += logs[a - lo : b - lo] < threshold
        a = b
    return OmegaSegment(lo=lo, hi=hi, values=values)


def _prime_powers(
    lo: int, hi: int, primes: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For e = 1, 2, ..., yield the powers q = p^e < hi of the given primes
    that have a multiple in [lo, hi): q ascending (uint64), the offset of
    its first multiple (int64) and the packed increment (1, w_p) (uint32)."""
    pair = np.empty((len(primes), 2), dtype=np.uint16)
    pair[:, 0] = 1
    pair[:, 1] = np.rint(_LOG_SCALE * np.log2(primes))
    inc = pair.view(np.uint32).reshape(len(primes))
    base = power = primes.astype(np.uint64)
    while len(power):
        start = np.uint64(lo) % power
        np.subtract(power, start, out=start)
        start %= power
        # Offsets below the block length fit int64 unchanged.  Powers up
        # to the block length all hit; they are passed on without a copy.
        hit = start < hi - lo
        if hit.all():
            yield power, start.view(np.int64), inc
        else:
            yield power[hit], start[hit].view(np.int64), inc[hit]
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
