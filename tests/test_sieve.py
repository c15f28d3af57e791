"""Sieve unit tests: small known values, oracle equivalence on random blocks,
segment-boundary independence, argument validation, and the source checks
of the stream consumers."""

import math
import random

import numpy as np
import pytest

from omegadist.dirichlet import truncated_L
from omegadist.race import race_scan
from omegadist.sieve import (
    OmegaSegment,
    iter_segments,
    omega_block,
    omega_single,
    primes_up_to,
    segment_bounds,
)

# Omega(1..16), easy to verify by hand.
OMEGA_1_TO_16 = [0, 1, 1, 2, 1, 2, 1, 3, 2, 2, 1, 3, 1, 2, 2, 4]


def test_primes_up_to_small():
    assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]
    assert primes_up_to(2).primes.tolist() == [2]
    assert primes_up_to(3).primes.tolist() == [2, 3]


def test_primes_up_to_pi_of_10000():
    # pi(10^4) = 1229, a standard table value.
    table = primes_up_to(10_000)
    assert len(table) == 1229
    assert table.primes[-1] == 9973


def test_primes_up_to_rejects_tiny_limit():
    with pytest.raises(ValueError):
        primes_up_to(1)


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0), (2, 1), (4, 2), (12, 3), (97, 1), (360, 6), (2**20, 20), (9973 * 9973, 2)],
)
def test_omega_single_known_values(n, expected):
    assert omega_single(n) == expected


@pytest.mark.parametrize("n", [0, -5])
def test_omega_single_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        omega_single(n)


def test_omega_block_first_sixteen():
    table = primes_up_to(4)
    segment = omega_block(1, 17, table)
    assert segment.values.tolist() == OMEGA_1_TO_16
    assert segment.values.dtype == np.uint8


def test_omega_block_interior_start():
    # Block not anchored at 1: values must match the oracle index by index.
    table = primes_up_to(100)
    segment = omega_block(1000, 1100, table)
    assert segment.lo == 1000 and segment.hi == 1100
    for i in range(100):
        assert int(segment.values[i]) == omega_single(1000 + i)


def test_omega_block_near_1e9():
    lo = 10**9
    table = primes_up_to(math.isqrt(lo + 1000))
    segment = omega_block(lo, lo + 1000, table)
    rng = random.Random(7)
    for i in rng.sample(range(1000), 60):
        assert int(segment.values[i]) == omega_single(lo + i)


def test_omega_block_prime_indicator():
    # Omega(n) == 1 exactly at the primes.
    table = primes_up_to(1000)
    values = omega_block(2, 1001, table).values
    found = [n for n, v in zip(range(2, 1001), values) if v == 1]
    assert found == table.primes.tolist()


def test_omega_block_segmentation_is_invisible():
    """Splitting [1, N] at arbitrary points changes nothing: the block
    algorithm has no state across blocks."""
    n_max = 5000
    table = primes_up_to(math.isqrt(n_max))
    whole = omega_block(1, n_max + 1, table).values
    rng = random.Random(20260825)
    cuts = sorted(rng.sample(range(2, n_max), 7))
    bounds = list(zip([1] + cuts, cuts + [n_max + 1]))
    pieces = [omega_block(lo, hi, table).values for lo, hi in bounds]
    assert np.array_equal(np.concatenate(pieces), whole)


def test_omega_block_validates_arguments():
    table = primes_up_to(10)
    with pytest.raises(ValueError):
        omega_block(0, 5, table)
    with pytest.raises(ValueError):
        omega_block(5, 5, table)
    with pytest.raises(ValueError):
        omega_block(1, 1000, table)  # table too small for isqrt(999)


def test_segment_bounds_cover_exactly():
    bounds = segment_bounds(10**5, 2**12)
    assert bounds[0][0] == 1
    assert bounds[-1][1] == 10**5 + 1
    for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
        assert hi == lo


def test_iter_segments_matches_single_block():
    n_max = 3000
    whole = omega_block(1, n_max + 1, primes_up_to(math.isqrt(n_max))).values
    streamed = np.concatenate(
        [seg.values for seg in iter_segments(n_max, segment_size=257)]
    )
    assert np.array_equal(streamed, whole)


def test_iter_segments_workers_agree():
    n_max = 20_000
    serial = np.concatenate(
        [s.values for s in iter_segments(n_max, segment_size=1024)]
    )
    parallel = np.concatenate(
        [s.values for s in iter_segments(n_max, segment_size=1024, workers=3)]
    )
    assert np.array_equal(serial, parallel)


def test_iter_segments_validates_arguments():
    with pytest.raises(ValueError):
        list(iter_segments(0))
    with pytest.raises(ValueError):
        list(iter_segments(10, workers=0))
    with pytest.raises(ValueError):
        list(iter_segments(10, segment_size=0))


# Both consumers of a caller-supplied Omega stream, reading 1..1000.
STREAM_CONSUMERS = {
    "truncated_L": lambda source: truncated_L(3, 1, 2.0, 1000, omega_source=source),
    "race_scan": lambda source: race_scan(3, 0, 1, 1000, omega_source=source),
}


@pytest.mark.parametrize("consumer", list(STREAM_CONSUMERS))
def test_consumers_reject_gapped_source(consumer):
    segments = list(iter_segments(1000, segment_size=128))
    del segments[1]
    with pytest.raises(ValueError, match="skipped to 257, expected 129"):
        STREAM_CONSUMERS[consumer](segments)


@pytest.mark.parametrize("consumer", list(STREAM_CONSUMERS))
def test_consumers_reject_short_source(consumer):
    segments = list(iter_segments(500, segment_size=128))
    with pytest.raises(ValueError, match="ended at 500, need 1000"):
        STREAM_CONSUMERS[consumer](segments)


def test_uint8_headroom():
    # Largest Omega below 2^20 is 20 (n = 2^20); far below the uint8 ceiling.
    values = omega_block(1, 2**20 + 1, primes_up_to(1024)).values
    assert int(values.max()) == 20
