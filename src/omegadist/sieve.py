"""Segmented sieve for Omega(n), the number of prime factors counted with
multiplicity.

The block sieve never factors an integer one at a time.  For every prime
power q = p^e below the block's upper end, all multiples of q in the block
get one hit while a residual cofactor array is divided by p; whatever is
left greater than one at the end is a single prime factor above the square
root and contributes the final hit.  The result is exact for every n in the
block, not an approximation.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Entries per block.  Large enough to amortize the per-prime slicing
# overhead, small enough that values + residual stay cache-friendly.
DEFAULT_SEGMENT_SIZE = 1 << 20


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


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
        Block bounds, 1 <= lo < hi.
    table : PrimeTable
        Must cover at least isqrt(hi - 1).

    Notes
    -----
    For each prime p <= sqrt(hi - 1) and each power q = p^e < hi, every
    multiple of q in the block gets +1 and its residual cofactor is divided
    by p once.  A residual still > 1 afterwards is a prime factor larger
    than sqrt(hi - 1); it occurs to the first power only, hence one more hit.
    """
    if not 1 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")
    root = math.isqrt(hi - 1)
    if table.limit < root:
        raise ValueError(
            f"prime table covers {table.limit} but isqrt(hi - 1) = {root}"
        )
    n = hi - lo
    values = np.zeros(n, dtype=np.uint8)
    residual = np.arange(lo, hi, dtype=np.uint64)
    for p in table.primes:
        p = int(p)
        if p > root:
            break
        # uint64 divisor keeps the in-place floor-divide from promoting to
        # float64, which numpy refuses to cast back.
        divisor = np.uint64(p)
        q = p
        while q < hi:
            start = ((lo + q - 1) // q) * q
            if start < hi:
                marked = slice(start - lo, n, q)
                values[marked] += 1
                residual[marked] //= divisor
            q *= p
    values[residual > 1] += 1
    return OmegaSegment(lo=lo, hi=hi, values=values)


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
