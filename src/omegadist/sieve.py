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
Oliveira e Silva, Herzog and Pardi (Math. Comp. 83, 2014).  What depends
only on the prime table is computed once per table, as in that paper: the
packed increment of every prime, and every higher power p^e (e >= 3) that a
block the table covers can reach.  A block then takes its prime powers as
three ascending groups, the primes up to its root, their squares and the
cached higher powers below hi, each with one modulo for the offset of its
first multiple.  Prime powers that hit a block many times are marked with
one strided slice each.  The many large primes of a high block hit it only
a few times each; their hit indices are expanded and folded with np.add.at
in one vectorized pass, the bucket-sieve idea of the same paper written in
numpy.

A pooled stream sends each worker's block back through one shared buffer
of (workers + 2) block slots, not as a pickled array through a pipe.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

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

# Bounds on a stream's worker count and block length, checked before any
# process starts: a pooled stream shares (workers + 2) * segment_size bytes
# with its workers, and a fork pool starts every worker at once.
MAX_WORKERS = 64
MAX_SEGMENT_SIZE = 1 << 24


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

    @functools.cached_property
    def _prime_increments(self) -> np.ndarray:
        """The packed increment of every prime, as uint32, shared by every
        block the table sieves."""
        increments = _increments(self.primes)
        increments.flags.writeable = False
        return increments

    @functools.cached_property
    def _higher_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every p^e with e >= 3 below min((limit + 1)^2, 2**64), the bound
        on hi of any block the table covers, less 8, which the small-prime
        pattern holds: ascending as uint64, with the increment of p."""
        cap = np.uint64(min((self.limit + 1) ** 2, 1 << 64) - 1)
        base = power = self.primes.view(np.uint64)
        inc = self._prime_increments
        powers, increments = [], []
        for e in itertools.count(2):
            # The primes with p^e <= cap are a prefix, and power * base
            # <= cap < 2**64 cannot wrap.
            keep = int(np.count_nonzero(power <= cap // base))
            if not keep:
                break
            base, inc, power = base[:keep], inc[:keep], power[:keep] * base[:keep]
            if e >= 3:
                powers.append(power)
                increments.append(inc)
        q = np.concatenate([np.empty(0, np.uint64), *powers])
        q_inc = np.concatenate([np.empty(0, np.uint32), *increments])
        order = np.argsort(q, kind="stable")
        order = order[_PATTERN_PERIOD % q[order] != 0]
        q, q_inc = q[order], q_inc[order]
        q.flags.writeable = q_inc.flags.writeable = False
        return q, q_inc


@dataclass(frozen=True)
class OmegaSegment:
    """Omega values for one contiguous block: values[i] = Omega(lo + i).

    The range is [lo, hi), half-open.  uint8 storage is safe because
    Omega(n) <= log2(n) < 64 for any n below 2**64.
    """

    lo: int
    hi: int
    values: np.ndarray


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
    # Allocated before the counter words, so that freeing those leaves no
    # hole below the result and the process keeps less memory resident.
    values = np.empty(n, dtype=np.uint8)
    words = _tile_pattern(lo, n)
    for q, start, inc in _prime_powers(lo, hi, table):
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
    lo: int, hi: int, table: PrimeTable
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the prime powers q = p^e < hi with p <= isqrt(hi - 1) that have
    a multiple in [lo, hi), less those in the small-prime pattern, in three
    groups: the primes, their squares and the higher powers.  Each group is
    q ascending (uint64), the offset of its first multiple (int64) and the
    packed increment (uint32)."""
    count = int(np.searchsorted(table.primes, math.isqrt(hi - 1), side="right"))
    primes = table.primes[:count].view(np.uint64)
    inc = table._prime_increments[:count]
    # The pattern's primes are the smallest primes, and 4 the smallest
    # square; slicing them off keeps the arrays views.
    skip = int(np.count_nonzero(_PATTERN_PERIOD % primes[: len(_PATTERN_PRIMES)] == 0))
    yield _first_hits(lo, hi, primes[skip:], inc[skip:])
    # p <= isqrt(hi - 1) gives p^2 < hi, and every p^e < hi with e >= 3 is
    # a cached power of such a p.
    squares = primes * primes
    skip = int(np.count_nonzero(_PATTERN_PERIOD % squares[:1] == 0))
    yield _first_hits(lo, hi, squares[skip:], inc[skip:])
    powers, power_inc = table._higher_powers
    count = int(np.searchsorted(powers, np.uint64(hi - 1), side="right"))
    yield _first_hits(lo, hi, powers[:count], power_inc[:count])


def _first_hits(
    lo: int, hi: int, q: np.ndarray, inc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, start, inc) for the q with a multiple in [lo, hi), start being
    the offset of the first."""
    # (q - 1) - (lo - 1) mod q is the offset of the first multiple.
    start = np.uint64(lo - 1) % q
    np.subtract(q, start, out=start)
    start -= np.uint64(1)
    # Offsets below the block length fit int64 unchanged.  Powers up to the
    # block length all hit; they are passed on without a copy.
    hit = start < hi - lo
    if hit.all():
        return q, start.view(np.int64), inc
    return q[hit], start[hit].view(np.int64), inc[hit]


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


# Per-process state of a pool worker: its prime tables, so that it sieves
# each once, not once per submitted block, and a view of the stream's shared
# block buffer.
_worker_tables: dict[int, PrimeTable] = {}
_worker_buffer: np.ndarray | None = None


def _block_values(lo: int, hi: int, limit: int) -> np.ndarray:
    table = _worker_tables.get(limit)
    if table is None:
        table = primes_up_to(limit)
        _worker_tables[limit] = table
    return omega_block(lo, hi, table).values


def _attach_buffer(buffer) -> None:
    """Pool initializer: keep a uint8 view of the shared block buffer."""
    global _worker_buffer
    _worker_buffer = np.frombuffer(buffer, dtype=np.uint8)


def _sieve_into_buffer(lo: int, hi: int, limit: int, offset: int) -> None:
    """Pool task: sieve [lo, hi) into the shared buffer from offset on."""
    _worker_buffer[offset : offset + hi - lo] = _block_values(lo, hi, limit)


def segment_bounds(x_max: int, segment_size: int) -> Iterator[tuple[int, int]]:
    """Half-open block bounds covering 1..x_max in order, made as they are
    read."""
    for lo in range(1, x_max + 1, segment_size):
        yield lo, min(lo + segment_size, x_max + 1)


def iter_segments(
    x_max: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> Iterator[OmegaSegment]:
    """Stream OmegaSegments covering 1..x_max, in ascending order.

    With workers > 1 the blocks are computed in a process pool, each worker
    with its own prime table, but are always yielded in block order, so
    everything downstream produces output independent of the worker count.
    x_max must be below 2**64, the bound of omega_block, segment_size at
    most MAX_SEGMENT_SIZE and workers at most MAX_WORKERS.
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if x_max >= 1 << 64:
        raise ValueError(f"x_max must be below 2**64, got {x_max}")
    if not 1 <= segment_size <= MAX_SEGMENT_SIZE:
        raise ValueError(
            f"segment_size must be in 1..{MAX_SEGMENT_SIZE}, got {segment_size}"
        )
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    limit = max(2, math.isqrt(x_max))
    blocks = segment_bounds(x_max, segment_size)
    if workers == 1:
        table = primes_up_to(limit)
        for lo, hi in blocks:
            yield omega_block(lo, hi, table)
        return
    # Imported here: it loads the multiprocessing heap, which a serial
    # stream does not need.
    from multiprocessing.sharedctypes import RawArray

    # Block k goes to slot k mod slots.  At most slots blocks are in flight,
    # so no slot is written again before the parent has copied it out.
    slots = workers + 2
    width = min(segment_size, x_max)
    buffer = RawArray("B", slots * width)
    shared = np.frombuffer(buffer, dtype=np.uint8)
    jobs = (
        (lo, hi, limit, k % slots * width) for k, (lo, hi) in enumerate(blocks)
    )
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_attach_buffer, initargs=(buffer,)
    ) as pool:
        pending = deque(
            (job, pool.submit(_sieve_into_buffer, *job))
            for job in itertools.islice(jobs, slots)
        )
        while pending:
            (lo, hi, _, offset), future = pending.popleft()
            future.result()
            values = shared[offset : offset + hi - lo].copy()
            job = next(jobs, None)
            if job is not None:
                pending.append((job, pool.submit(_sieve_into_buffer, *job)))
            yield OmegaSegment(lo=lo, hi=hi, values=values)
