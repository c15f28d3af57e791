"""Segmented sieve for Omega(n), the number of prime factors counted with
multiplicity.

The block sieve never factors an integer one at a time, and it never
divides.  For a block [lo, hi) with root r = isqrt(hi - 1), every prime
power q = p^e < hi with p <= r gives each of its multiples in the block one
hit and the fixed-point weight round(15 * log2 p).  Each n keeps one
uint16 word holding the hits in its low 6 bits and the weight sum in its
high 10 bits, so that one add of the increment 1 + (w << 6) updates both;
the hits are word & 63 and the sum word >> 6 on any byte order.  A 2^20
block's words take 2 MB; 16 bits rather than 32 halve the cache lines
that the strided passes of the dense primes touch.
Afterwards n = m * c, where m is the part of n made of primes <= r (and of
the pattern primes below) and c is 1 or a single prime above r.  The hits
give Omega(m).  The weight sum is 15 * log2 m up to a rounding error of
Omega(m) / 2 < log2(r + 1) units, while a prime cofactor c > r leaves out
log2(r + 1) bits, 15 times as many units, so comparing the sum with
15 * log2 n shows exactly where c > 1; that n gets the final hit.
The comparison uses one threshold per sub-range [a, a * sqrt 2), so no
logarithm is taken per element.  The result is exact for every n below
2**64; `omega_block` gives the bound.

The prime powers dividing 120120 = 2^3 * 3 * 5 * 7 * 11 * 13, which would
each make a full strided pass over the 2 MB of words of a 2^20 block, are
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
a few times each; np.add.at folds them round by round, carrying each
power's next multiple, the bucket-sieve idea of the same paper in numpy.

The prime tables themselves come from a segmented sieve of Eratosthenes
over the odd numbers, pre-sieved from the odd half of the same pattern,
which writes its primes straight into one uint32 array; a table's limit is
below 2**32, which covers every block below 2**64.  Like a block, each
segment is sieved from its own bounds, one modulo giving every base prime's
first strike, and no state carries from one segment to the next.

A stream sieves one prime table, which a pooled stream hands to each
worker as it starts; the workers send their blocks back through one shared
buffer of (workers + 2) block slots, not as pickled arrays through a pipe.
With wheel 6 a block and a stream hold the n coprime to 6 only, the next
spoke of the same pre-sieve: they form two lanes, n = 1 and n = 5 (mod 6),
each a progression of step 6 sieved from its own sixth of the pattern, and
errorterms lifts them by the powers 2^a * 3^b.

omega_counts counts the 64 Omega bins of consecutive pieces of an array,
for the segment histogram and errorterms' checkpoint pieces; the race
counts its sub-blocks' classes by compares, and omega_max checks the
values for both.  fold_classes alone folds the bins onto m classes.
Each OmegaSegment carries the 64-bin histogram of its values, counted on
first use and cached, which every residue tally of the segment folds; a
segment's values must therefore not change after it is first tallied.
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
# overhead, small enough that the block's uint16 counter words stay
# cache-friendly.
DEFAULT_SEGMENT_SIZE = 1 << 20

# Keys per bincount of omega_counts: pairs of values in a long piece, or
# the values of a group of short pieces.  bincount's intp copy of them
# stays at 512 KB, in L2 with the bins.
_COUNT_KEYS = 1 << 16

# Fixed-point units per bit of the log accumulator.  An n below 2**64 sums
# at most 15 * 64 + 32 = 992 units, which fits its word's 10-bit field; the
# cofactor test needs no more than 15 (omega_block's Notes).
_LOG_SCALE = 15

# _increments takes the logs of this many primes at a time, so its float64
# scratch stays at a few MB however large the table.
_INCREMENT_CHUNK = 1 << 20

# A prime power with at least this many hits per block is marked with a
# strided slice; rarer ones go through the vectorized pass, whose per-hit
# cost beats the per-slice overhead below this count.
_DENSE_HITS = 128

# Every block starts from a periodic pattern that already holds the
# increments of the prime powers dividing the period 2^3 * 3 * 5 * 7 * 11 *
# 13 (2, 4, 8, 3, 5, 7, 11 and 13), the ones that cost a block the most
# passes.  The pattern is 120120 uint16 words, 240 KB.
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13)
_PATTERN_PERIOD = 120120

# primes_up_to sieves the odd numbers in segments of this many flags (2^21
# integers), 1 MB of bools that stays in a core's L2.  Each segment starts
# from the odd half of the block pattern, 60060 flags that strike out the
# multiples of 3, 5, 7, 11 and 13.
_PRIME_SEGMENT = 1 << 20

# The sparse fold adds a hit of every power per round while this many
# powers can still hit, and then expands the last few powers' hits at once.
_ROUND_MIN = 256

# Bounds on a stream's worker count and block length, checked before any
# process starts: a pooled stream shares (workers + 2) * segment_size bytes
# with its workers, and a fork pool starts every worker at once.
MAX_WORKERS = 64
MAX_SEGMENT_SIZE = 1 << 24


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as a uint32 array; limit < 2**32."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)

    @functools.cached_property
    def _prime_increments(self) -> np.ndarray:
        """The packed increment of every prime, as uint16, shared by every
        block the table sieves."""
        increments = _increments(self.primes)
        increments.flags.writeable = False
        return increments

    @functools.cached_property
    def _higher_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """Every p^e with e >= 3 below min((limit + 1)^2, 2**64), the bound
        on hi of any block the table covers, less 8, which the small-prime
        pattern holds: ascending as uint64, with the increment of p."""
        cap = min((self.limit + 1) ** 2, 1 << 64) - 1
        # Only the primes with p^3 <= cap have such a power.
        cube_root = round(cap ** (1 / 3))
        cube_root -= cube_root**3 > cap
        count = int(np.searchsorted(self.primes, np.uint32(cube_root), side="right"))
        base = self.primes[:count].astype(np.uint64)
        inc = self._prime_increments[:count]
        power = base * base * base
        cap = np.uint64(cap)
        powers, increments = [], []
        while len(base):
            powers.append(power)
            increments.append(inc)
            # power holds p^e <= cap.  The primes with p^(e + 1) <= cap are
            # a prefix, and power * base <= cap < 2**64 cannot wrap.
            keep = int(np.count_nonzero(power <= cap // base))
            base, inc, power = base[:keep], inc[:keep], power[:keep] * base[:keep]
        q = np.concatenate([np.empty(0, np.uint64), *powers])
        q_inc = np.concatenate([np.empty(0, np.uint16), *increments])
        order = np.argsort(q, kind="stable")
        order = order[_PATTERN_PERIOD % q[order] != 0]
        q, q_inc = q[order], q_inc[order]
        q.flags.writeable = q_inc.flags.writeable = False
        return q, q_inc


@dataclass(frozen=True)
class OmegaSegment:
    """Omega values for one block [lo, hi), half-open, in ascending n.

    A segment holds every n, values[i] = Omega(lo + i), exactly when
    len(values) == hi - lo; a wheel-6 block of omega_block or iter_segments
    holds the n coprime to 6 only.  uint8 storage is safe because
    Omega(n) <= log2(n) < 64 for any n below 2**64.

    `histogram` counts the values once, when it is first read, and every
    later tally of the segment, for any modulus, reuses it.  So the values
    must not change after the segment is first tallied; they are left
    writable for code that edits a block before anything reads it.
    """

    lo: int
    hi: int
    values: np.ndarray

    @functools.cached_property
    def histogram(self) -> np.ndarray:
        """hist[w] = #{i : values[i] == w} for w < 64, read-only."""
        hist = omega_counts(self.values, [len(self.values)])[0]
        hist.flags.writeable = False
        return hist


def fold_classes(hist: np.ndarray, m: int) -> np.ndarray:
    """counts[..., j] = the sum of hist[..., w] over w = j (mod m): the 64
    Omega bins on the last axis of hist folded onto m >= 1 classes.  The
    64 // m full rows of m bins are summed, and the 64 mod m bins left over
    add to the first classes (all 64 of them when m > 64)."""
    rows = 64 // m
    counts = hist[..., : rows * m].reshape(*hist.shape[:-1], rows, m).sum(axis=-2)
    counts[..., : 64 - rows * m] += hist[..., rows * m :]
    return counts


def omega_max(values: np.ndarray) -> int:
    """The largest uint8 Omega value (-1 for none), checked to be below 64."""
    if values.dtype != np.uint8:
        raise TypeError(f"need uint8 Omega values, got {values.dtype}")
    top = int(values.max()) if len(values) else -1
    if top >= 64:
        raise ValueError("Omega values must be below 64")
    return top


def omega_counts(values: np.ndarray, ends) -> np.ndarray:
    """counts[k, w] = #{i in piece k : values[i] = w}, int64 of shape
    (len(ends), 64), where piece k of the uint8 Omega values is
    values[ends[k - 1] : ends[k]], ends[-1] read as 0; the ends ascend and
    the last is len(values).

    A piece of 2^14 values or more is read in pairs: each uint16 holds two
    values below 64, so a 2^14-bin bincount of _COUNT_KEYS pairs at a time
    counts both, and summing the (64, 256) table along each axis gives the
    count of each byte whatever the byte order.  A run of shorter pieces is
    counted in groups of at most _COUNT_KEYS values and 1024 pieces, one
    bincount each of the values plus 64 times their piece's place in the
    group, a key that fits in uint16.  Raises as omega_max does.
    """
    omega_max(values)
    ends = np.asarray(ends, dtype=np.intp)
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    counts = np.empty((len(ends), 64), dtype=np.int64)
    long = np.flatnonzero(lengths >= 1 << 14).tolist()
    for k in long:
        # The pair view needs contiguous bytes; a contiguous piece is not copied.
        piece = np.ascontiguousarray(values[starts[k] : ends[k]])
        pairs = piece[: len(piece) - len(piece) % 2].view(np.uint16)
        table = sum(
            np.bincount(pairs[a : a + _COUNT_KEYS], minlength=1 << 14)
            for a in range(0, len(pairs), _COUNT_KEYS)
        ).reshape(64, 256)
        counts[k] = table.sum(axis=0)[:64] + table.sum(axis=1)
        if len(piece) % 2:
            counts[k, piece[-1]] += 1
    k = 0
    for stop in [*long, len(ends)]:
        while k < stop:
            j = int(np.searchsorted(ends, starts[k] + _COUNT_KEYS, side="right"))
            j = min(j, k + 1024, stop)
            keys = np.repeat(np.arange(0, 64 * (j - k), 64, dtype=np.uint16), lengths[k:j])
            keys += values[starts[k] : ends[j - 1]]
            counts[k:j] = np.bincount(keys, minlength=64 * (j - k)).reshape(j - k, 64)
            k = j
        k = stop + 1
    return counts


def primes_up_to(limit: int) -> PrimeTable:
    """Every prime <= limit, by a segmented sieve of Eratosthenes over the
    odd numbers.

    The base primes up to isqrt(limit) come from the same sieve run to
    isqrt(limit) when that exceeds 13.  Each segment of _PRIME_SEGMENT odd
    numbers starts from the odd half of the tiled block pattern, has the
    multiples of the other base primes struck out from the square on, from
    first indices computed from its own bounds alone, and writes its
    survivors straight into one uint32 array sized by Dusart's bound
    pi(x) <= x / log x * (1 + 1.2762 / log x) (x > 1) and trimmed at the
    end, so the peak is about the table itself.

    Parameters
    ----------
    limit : int
        Inclusive upper bound, 2 <= limit < 2**32.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit >= 1 << 32:
        raise ValueError(f"limit must be below 2**32, got {limit}")
    return PrimeTable(limit=limit, primes=_sieve_primes(limit))


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes of primes_up_to(limit), ascending as uint32."""
    log = math.log(limit)
    primes = np.empty(math.ceil(limit / log * (1 + 1.2762 / log)) + 1, dtype=np.uint32)
    primes[0] = 2
    count = 1
    # Odd n is index (n - 1) // 2.  The odd half of the block pattern strikes
    # the multiples of 3..13, which below 17^2 are all the odd composites;
    # each base prime p from 17 to isqrt(limit) strikes its odd multiples
    # from p^2 on, the indices = (p - 1) // 2 (mod p) from (p^2 - 1) // 2.
    root = math.isqrt(limit)
    if root > _PATTERN_PRIMES[-1]:
        base = _sieve_primes(root)[len(_PATTERN_PRIMES) :].astype(np.int64)
    else:
        base = np.empty(0, np.int64)
    residue, square = (base - 1) // 2, (base * base - 1) // 2
    n_odd = (limit + 1) // 2
    flags = np.empty(min(_PRIME_SEGMENT, n_odd), dtype=bool)
    pattern = _small_prime_pattern(2) == 0
    for a in range(0, n_odd, _PRIME_SEGMENT):
        b = min(a + _PRIME_SEGMENT, n_odd)
        segment = flags[: b - a]
        _tile(segment, pattern, a)
        if a == 0:
            # 1 is not prime; the pattern's own primes are.
            segment[0] = False
            segment[[(p - 1) // 2 for p in _PATTERN_PRIMES[1:] if p <= limit]] = True
        # The p with p^2 <= 2b strike [a, b), each from its first index at
        # or past its square and a: from the bounds alone, nothing carried.
        active = int(np.searchsorted(base, math.isqrt(2 * b), side="right"))
        steps = base[:active]
        first = np.maximum(square[:active], a)
        first += (residue[:active] - first) % steps
        for step, start in zip(steps.tolist(), (first - a).tolist()):
            segment[start::step] = False
        found = np.flatnonzero(segment)
        found *= 2
        found += 2 * a + 1
        primes[count : count + len(found)] = found
        count += len(found)
    # Shrinking in place gives the unused tail back without a copy.
    primes.resize(count, refcheck=False)
    return primes


def _tile(out: np.ndarray, pattern: np.ndarray, start: int) -> None:
    """Fill out with the periodic pattern, read from index start on."""
    period = len(pattern)
    offset = start % period
    filled = min(len(out), period - offset)
    out[:filled] = pattern[offset : offset + filled]
    while filled < len(out):
        size = min(len(out) - filled, period)
        out[filled : filled + size] = pattern[:size]
        filled += size


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


def _omega_trial_block(lo: int, hi: int) -> np.ndarray:
    """Omega(n) for every n in [lo, hi), 1 <= lo < hi, by trial division:
    each divisor d <= isqrt(hi - 1) strides through the multiples of d, d^2,
    ... in the block and divides d out of each rest it still divides, so a
    composite d, whose prime factors went first, never divides.  Independent
    of the sieve, like omega_single; the selftest's oracle.
    The rests are int32 where every n fits, which halves their memory."""
    rest = np.arange(lo, hi, dtype=np.int32 if hi <= 1 << 31 else np.int64)
    count = np.zeros(hi - lo, dtype=np.uint8)
    # 2, 3 and each 6k +- 1 up to the root: omega_single's divisors.
    limit = math.isqrt(hi - 1)
    k = np.arange(5, limit + 1, 6, dtype=np.int64)
    divisors = np.concatenate([[2, 3], np.column_stack((k, k + 2)).ravel()])
    for d in divisors[divisors <= limit].tolist():
        q = d
        while (first := (-lo) % q) < hi - lo:
            view = rest[first::q]
            divides = view % d == 0
            np.floor_divide(view, d, out=view, where=divides)
            count[first::q] += divides
            q *= d
    return count + (rest > 1)


def wheel_count(y):
    """The number of n in 1..y coprime to 6, for y >= 0; elementwise on an
    array of unsigned y."""
    q = y // 6
    r = y - 6 * q
    return 2 * q + (r >= 1) + (r >= 5)


def omega_block(lo: int, hi: int, table: PrimeTable, *, wheel: int = 1) -> OmegaSegment:
    """Compute Omega(n) exactly for every n in [lo, hi), or with wheel 6 for
    its n coprime to 6, in ascending order.

    Parameters
    ----------
    lo, hi : int
        Block bounds, 1 <= lo < hi <= 2**64.
    table : PrimeTable
        Must cover at least isqrt(hi - 1).
    wheel : int
        1, or 6 for the n coprime to 6 only.

    Notes
    -----
    Every prime power q = p^e < hi with p <= r = isqrt(hi - 1) adds one hit
    and the weight w_p = round(15 * log2 p) to each multiple of q in the
    block.  So n = m * c, where m collects the prime factors <= r and the
    cofactor c is 1 or a prime > r (two such primes would exceed n), gets
    Omega(m) hits and a weight sum W with |W - 15 * log2 m| <= Omega(m)/2.
    With L = log2(r + 1), hi - 1 < (r + 1)^2 gives
    Omega(m) <= log2(hi - 1) < 2L, so the rounding error is below L units.

    The powers 2, 4, 8, 3, 5, 7, 11 and 13 of the small-prime pattern add
    their hit and weight whether or not their prime is <= r.  A pattern
    prime p > r has p^2 > hi - 1, so only p itself divides n, and it is
    then the one prime factor of n above r: m takes p in as well, c = 1,
    and the bound on W holds as before.  Every other power q = p^e < hi
    with p <= r is sieved as above, so each prime power dividing n adds
    exactly once.

    The cofactor is not stored.  On a sub-range [a, b) whose every n has
    log2 n <= log2 a + 1/2, c = 1 gives W > 15 * log2 a - L, while c > r
    leaves out log2 c >= L bits, so W < 15 * (log2 a + 1/2 - L) + L.  The
    gap between the two is more than 13L - 7.5 >= 5.5 units for every
    r >= 1, and n gets the final hit where W < T, the midpoint
    15 * log2 a + 3.75 - 7.5L rounded up: each side keeps a margin above
    1.75 units, and T's float64 error is below 1e-9 units.  T is clamped
    at 0, where no W lies below it.  Below 2**64 the hit count stays under
    64 and W at most 15 * 64 + 32 = 992, so both fit their 6-bit and
    10-bit fields: an add never carries from one into the other, word & 63
    is the hit count, and word < T << 6 is the test W < T.  The words are
    read by arithmetic, not through a narrower view, so there is no
    byte-order caveat.

    With wheel 6 the block is two lanes, its n = 1 and its n = 5 (mod 6),
    each a progression of step 6.  Their words interleave, the i-th n of
    the lane that starts first at word 2i and of the other at 2i + 1, so
    the words run in ascending n; they start from pattern[1::6] and
    pattern[5::6] interleaved, and 4, 9, 16, 27, ... are left out: each
    prime power dividing an n coprime to 6 adds once, a q coprime to 6 on
    every q-th n of a lane, every 2q-th word.  Its first multiple in the
    lane from n0 is n0 + s + t * q, s = -n0 mod q, with t = -s * q mod 6,
    since q * q = 1 (mod 6), the n of index s // 6 + t * (q // 6) +
    (s % 6 + t * (q % 6)) // 6, which never forms s + t * q: that sum
    wraps past 2**64 for q > 2**61.
    """
    if wheel not in (1, 6):
        raise ValueError(f"wheel must be 1 or 6, got {wheel}")
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    if hi > 1 << 64:
        raise ValueError(f"the sieve works below 2**64, got hi={hi}")
    root = math.isqrt(hi - 1)
    if table.limit < root:
        raise ValueError(
            f"prime table covers {table.limit} but isqrt(hi - 1) = {root}"
        )
    n = _wheel_length(lo, hi, wheel)
    # Allocated before the counter words, so that freeing those leaves no
    # hole below the result and the process keeps less memory resident.
    values = np.empty(n, dtype=np.uint8)
    if n == 0:
        return OmegaSegment(lo=lo, hi=hi, values=values)
    # The words of the block's n in ascending order start as the pattern
    # tiled from the index in it of the first n, the number of n >= 0 below
    # lo coprime to wheel, which holds the pattern's prime powers.  One
    # spare word past each lane takes the sparse fold's overshoots.
    lanes = _lanes(lo, hi, wheel)
    words = np.empty((lanes[0][1] + 1) * len(lanes), dtype=np.uint16)
    _tile(words, _small_prime_pattern(wheel), _wheel_length(0, lo, wheel))
    for q, start, inc in _prime_powers(lo, hi, table, wheel):
        # A needle of q's dtype; a Python int would cast all of q.
        dense = int(np.searchsorted(q, q.dtype.type(n // _DENSE_HITS), side="right"))
        # A uint16 add through a view: words[first::step] += int(add)
        # would convert the int and write the view back through
        # __setitem__.
        for step, first, add in zip(q[:dense].tolist(), start[:dense].tolist(), inc[:dense]):
            view = words[first::step]
            view += add
        _fold_sparse(words, q[dense:], start[dense:], inc[dense:])
    np.bitwise_and(words[:n], 63, out=values, casting="unsafe")
    # T sits this many units below 15 * log2 a (the Notes).
    shift = _LOG_SCALE * (math.log2(root + 1) - 0.5) / 2
    a = lo
    while a < hi:
        b = min(hi, max(a + 1, math.isqrt(2 * a * a)))
        threshold = max(0, math.ceil(_LOG_SCALE * math.log2(a) - shift))
        i, j = _wheel_length(lo, a, wheel), _wheel_length(lo, b, wheel)
        # The hit count is below 64, so this compares the log sums.
        values[i:j] += words[i:j] < threshold << 6
        a = b
    return OmegaSegment(lo=lo, hi=hi, values=values)


def _wheel_length(lo: int, hi: int, wheel: int) -> int:
    """The number of n in [lo, hi), 0 <= lo <= hi, coprime to wheel (1 or
    6); 0 is coprime to 1 only."""
    return hi - lo if wheel == 1 else wheel_count(hi - 1) - wheel_count(lo - 1)


def _lanes(lo: int, hi: int, wheel: int) -> list[tuple[int, int]]:
    """(first n, length) of each lane of [lo, hi) whose n are coprime to
    wheel, a progression of step wheel: the one lane of every n, or the
    nonempty lanes of the n = 1 and the n = 5 (mod 6), the first n's first."""
    if wheel == 1:
        return [(lo, hi - lo)]
    firsts = [n for n in range(lo, lo + 6) if n % 6 in (1, 5)]
    return [(n0, (hi - n0 + 5) // 6) for n0 in firsts if n0 < hi]


def _increments(primes: np.ndarray) -> np.ndarray:
    """The packed increment 1 + (w_p << 6), w_p = round(15 * log2 p), of
    each prime, as uint16, with the logs taken _INCREMENT_CHUNK at a time."""
    increments = np.empty(len(primes), dtype=np.uint16)
    for start in range(0, len(primes), _INCREMENT_CHUNK):
        logs = np.log2(primes[start : start + _INCREMENT_CHUNK])
        increments[start : start + len(logs)] = np.rint(_LOG_SCALE * logs) * 64 + 1
    return increments


@functools.cache
def _small_prime_pattern(wheel: int = 1) -> np.ndarray:
    """pattern[i] is the sum of the increments of the prime powers q that
    divide _PATTERN_PERIOD and the i-th n >= 0 coprime to wheel, 1, 2 or 6:
    the words of every such n (mod the period) after those powers are
    sieved.  With wheel 6 that is pattern[1::6] and pattern[5::6]
    interleaved.  Read-only, shared by all blocks of the process."""
    pattern = np.zeros(_PATTERN_PERIOD, dtype=np.uint16)
    for p, inc in zip(_PATTERN_PRIMES, _increments(np.array(_PATTERN_PRIMES)).tolist()):
        q = p
        while _PATTERN_PERIOD % q == 0:
            pattern[::q] += inc
            q *= p
    residues = [r for r in range(wheel) if math.gcd(r, wheel) == 1]
    pattern = pattern.reshape(-1, wheel)[:, residues].reshape(-1)
    pattern.flags.writeable = False
    return pattern


def _prime_powers(
    lo: int, hi: int, table: PrimeTable, wheel: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the prime powers q = p^e < hi with p <= isqrt(hi - 1) that have
    a multiple among the n of [lo, hi) coprime to wheel, less those in the
    small-prime pattern, in three groups: the primes, their squares and the
    higher powers.  Each group is the step of q through omega_block's words
    ascending, the index of the word of its first multiple (int64) and the
    packed increment (uint16).  With wheel 1 the step is q (uint32 for the
    primes, uint64 for the powers).  With wheel 6 each q comes once for
    each of the two lanes it hits, whose i-th words are words 2i and
    2i + 1, and steps 2q; a q >= rows, the words of a lane and its spare,
    hits its lane at most once and steps 2 * rows, past every word, which
    keeps 2q below 2**64."""
    lanes = _lanes(lo, hi, wheel)
    root = np.uint32(math.isqrt(hi - 1))
    count = int(np.searchsorted(table.primes, root, side="right"))
    primes = table.primes[:count]
    inc = table._prime_increments[:count]
    # The pattern's primes are the smallest primes, and so a prefix.
    skip = int(np.count_nonzero(_PATTERN_PERIOD % primes[: len(_PATTERN_PRIMES)] == 0))
    yield _lane_hits(lanes, wheel, primes[skip:], inc[skip:])
    # p <= isqrt(hi - 1) gives p^2 < hi <= 2**64, and every p^e < hi with
    # e >= 3 is a cached power of such a p.  The squares left out, 4 (in
    # the pattern) and with wheel 6 also 9, are a prefix.
    squares = primes.astype(np.uint64)
    squares *= squares
    skip = int(np.count_nonzero(primes[:2] <= (2 if wheel == 1 else 3)))
    yield _lane_hits(lanes, wheel, squares[skip:], inc[skip:])
    powers, power_inc = table._higher_powers
    count = int(np.searchsorted(powers, np.uint64(hi - 1), side="right"))
    powers, power_inc = powers[:count], power_inc[:count]
    if wheel == 6:  # 16, 27, 32, 81, ... divide no n coprime to 6
        keep = (powers % np.uint64(2) != 0) & (powers % np.uint64(3) != 0)
        powers, power_inc = powers[keep], power_inc[keep]
    yield _lane_hits(lanes, wheel, powers, power_inc)


def _lane_hits(
    lanes: list[tuple[int, int]], wheel: int, q: np.ndarray, inc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One group of _prime_powers from its q ascending and increments, in
    a frame of its own, so that its lanes' unfiltered first hits are freed
    before the group is sieved."""
    k, rows = len(lanes), lanes[0][1] + 1
    start = _first_hits(np.array([[n0 - 1] for n0, _ in lanes], dtype=np.uint64), wheel, q)
    # Read column by column, each q's lanes side by side, so that the
    # steps stay ascending.
    hit = (start < np.array([[length] for _, length in lanes], dtype=np.uint64)).T.reshape(-1)
    if k > 1:
        start *= np.uint64(k)
        start += np.arange(k, dtype=np.uint64)[:, None]
        q = np.repeat(np.uint64(k) * np.minimum(q, np.uint64(rows)), k)
        inc = np.repeat(inc, k)
    # Indices below the block length fit int64 unchanged.
    return q[hit], start.T.reshape(-1)[hit].view(np.int64), inc[hit]


def _first_hits(before: np.ndarray, step: int, q: np.ndarray) -> np.ndarray:
    """start[k, i], the index of the first multiple of q[i] among the n of
    lane k, n0 + step * j for n0 = before[k, 0] + 1; step is 1, or 6 for q
    coprime to 6 (omega_block's Notes)."""
    # (q - 1) - (n0 - 1) mod q is the offset of the first multiple.
    start = before % q
    np.subtract(q, start, out=start)
    start -= np.uint64(1)
    if step == 6:
        six = np.uint64(6)
        rest, q_rest = start % six, q % six
        t = (six - rest) * q_rest % six
        start //= six
        start += t * (q // six) + (rest + t * q_rest) // six
    return start


def _fold_sparse(
    words: np.ndarray, q: np.ndarray, start: np.ndarray, inc: np.ndarray
) -> None:
    """Add inc[i] at start[i], start[i] + q[i], ... below n = len(words) - 1
    for every i, where q ascends and each q[i] hits at most _DENSE_HITS
    times; the spare word words[n] takes the rounds' overshoots.

    Round r adds the r-th multiple past the first of the powers with
    q <= (n - 1) / r, a prefix of q, through np.add.at, which, unlike a
    fancy-index +=, adds once for every hit where several powers hit the
    same index.
    """
    n = len(words) - 1
    # A power >= n hits once; stepping by n leaves the block all the same
    # and keeps the index arithmetic in int64.
    step = np.minimum(q, np.uint64(n)).view(np.int64)
    np.add.at(words, start, inc)
    # prefixes[r - 1] is the length of round r's prefix.  The last round's
    # is empty, since every q > n // _DENSE_HITS, so the loop always breaks.
    rounds = np.arange(1, _DENSE_HITS + 1, dtype=q.dtype)
    prefixes = np.searchsorted(q, q.dtype.type(n - 1) // rounds, side="right")
    first = start.copy()
    for count in prefixes.tolist():
        first[:count] += step[:count]
        if count < _ROUND_MIN:
            break
        np.add.at(words, np.minimum(first[:count], n), inc[:count])
    # The tail: every remaining hit of the fewer than _ROUND_MIN powers left.
    first, step = first[:count], step[:count]
    counts = np.maximum((n - 1 - first) // step + 1, 0)
    offset = np.cumsum(counts) - counts
    idx = np.repeat(first - offset * step, counts)
    idx += np.arange(len(idx)) * np.repeat(step, counts)
    np.add.at(words, idx, np.repeat(inc[:count], counts))


# Per-process state of a pool worker: the shared buffer and the table.
_worker_buffer: np.ndarray | None = None
_stream_table: PrimeTable | None = None


def _start_worker(buffer, table: PrimeTable) -> None:
    """Pool initializer: keep a view of the shared buffer and the stream's
    prime table, shared if forked, else pickled with its caches writable."""
    global _worker_buffer, _stream_table
    _worker_buffer = np.frombuffer(buffer, dtype=np.uint8)
    _stream_table = table
    for cache in (table._prime_increments, *table._higher_powers):
        cache.flags.writeable = False


def _sieve_into_buffer(lo: int, hi: int, offset: int, wheel: int) -> None:
    """Pool task: sieve [lo, hi) into the shared buffer from offset on."""
    values = omega_block(lo, hi, _stream_table, wheel=wheel).values
    _worker_buffer[offset : offset + len(values)] = values


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
    wheel: int = 1,
) -> Iterator[OmegaSegment]:
    """Stream OmegaSegments covering 1..x_max, or with wheel 6 its n coprime
    to 6, in ascending order, segment_size values a block.

    The prime table is sieved and its caches filled once, in the calling
    process.  With workers > 1 the blocks are computed in a process pool
    whose workers share them, but are always yielded in block order, so
    everything downstream produces output independent of the worker count.
    x_max must be below 2**64, the bound of omega_block, segment_size at
    most MAX_SEGMENT_SIZE, workers at most MAX_WORKERS and wheel 1 or 6.
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
    if wheel not in (1, 6):
        raise ValueError(f"wheel must be 1 or 6, got {wheel}")
    table = primes_up_to(max(2, math.isqrt(x_max)))
    # Fills the caches, which forked workers share.
    table._prime_increments, table._higher_powers, _small_prime_pattern(wheel)
    # Every 3 integers from 1 on hold one n coprime to 6, so a wheel block
    # of 3 * segment_size integers holds segment_size values.
    blocks = segment_bounds(x_max, segment_size if wheel == 1 else 3 * segment_size)
    if workers == 1:
        for lo, hi in blocks:
            yield omega_block(lo, hi, table, wheel=wheel)
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
    jobs = ((lo, hi, k % slots * width) for k, (lo, hi) in enumerate(blocks))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(buffer, table)
    ) as pool:
        pending = deque(
            (job, pool.submit(_sieve_into_buffer, *job, wheel))
            for job in itertools.islice(jobs, slots)
        )
        while pending:
            (lo, hi, offset), future = pending.popleft()
            future.result()
            values = shared[offset : offset + _wheel_length(lo, hi, wheel)].copy()
            job = next(jobs, None)
            if job is not None:
                pending.append((job, pool.submit(_sieve_into_buffer, *job, wheel)))
            yield OmegaSegment(lo=lo, hi=hi, values=values)
