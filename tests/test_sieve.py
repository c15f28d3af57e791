"""Sieve unit tests: small known values, oracle equivalence on random blocks
and at the edges of the block sieve, segment-boundary independence and
argument validation."""

import math
import multiprocessing
import random
import tracemalloc

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped, the rest still runs
    given = None

from omegadist import sieve
from omegadist.sieve import (
    OmegaSegment,
    PrimeTable,
    _prime_powers,
    _omega_trial_division,
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


def assert_matches_oracle(lo, hi, table):
    values = omega_block(lo, hi, table).values
    assert values.dtype == np.uint8 and len(values) == hi - lo
    assert values.tolist() == [omega_single(n) for n in range(lo, hi)]


# Heights up to 10^13, one decade drawn uniformly, so most examples stay low
# enough for the trial-division oracle.
HEIGHT_LIMIT = 10**13


@pytest.fixture(scope="module")
def high_table():
    return primes_up_to(math.isqrt(HEIGHT_LIMIT + 16))


if given is not None:

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(1, 13).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e)),
        length=st.integers(1, 8),
    )
    def test_omega_block_matches_oracle_at_random_heights(high_table, lo, length):
        assert_matches_oracle(lo, lo + length, high_table)

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_omega_block_matches_oracle_at_random_heights():
        pass


@pytest.mark.parametrize("hi, expected", [(2, [0]), (3, [0, 1])])
def test_omega_block_tiny_blocks_at_one(hi, expected):
    # isqrt(hi - 1) = 1: no prime is sieved, only the cofactor test runs.
    assert omega_block(1, hi, primes_up_to(2)).values.tolist() == expected


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 97, 2**20, 3**12, 999_999_999_989, 10**12, 2**40, 2**40 + 1]
)
def test_omega_block_one_element(n):
    assert_matches_oracle(n, n + 1, primes_up_to(max(2, math.isqrt(n))))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (4900, 4900 + 2048),  # 17^3 = 4913, 17 > 2048 // 128
        (83000, 83000 + 1024),  # 17^4 = 83521, 17 > 1024 // 128
        (1_018_081 - 1000, 1_018_081 + 1048),  # 1009^2, and 2 * 1009^2 nearby
        (1_030_301 - 5, 1_030_301 + 5),  # 101^3 in a block of 10: all sparse
    ],
)
def test_omega_block_sparse_prime_powers(lo, hi):
    """Powers p^2, p^3, p^4 of a prime with few hits per block land inside
    the block and must each add one hit."""
    assert_matches_oracle(lo, hi, primes_up_to(math.isqrt(hi - 1)))


def test_omega_block_straddles_2_to_40():
    lo, hi = 2**40 - 32, 2**40 + 32
    assert_matches_oracle(lo, hi, primes_up_to(math.isqrt(hi - 1)))


@pytest.mark.parametrize("length", [1, 127, 128, 129, 255, 256, 257, 8192])
def test_omega_block_lengths_around_dense_cut(length):
    """A prime power is strided when it hits a block at least 128 times,
    so 2 is strided from length 256 on; 8192 also splits the vectorized
    pass into several chunks."""
    lo = 10**6 + 3
    assert_matches_oracle(lo, lo + length, primes_up_to(math.isqrt(lo + length)))


# Every block starts from a tiled pattern of period 2^3 * 3 * 5 * 7 * 11 * 13.
PATTERN_PERIOD = 120120


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("residue", [0, 1, PATTERN_PERIOD - 1])
def test_omega_block_starts_at_each_pattern_phase(k, residue):
    lo = k * PATTERN_PERIOD + residue
    assert_matches_oracle(lo, lo + 1000, primes_up_to(math.isqrt(lo + 1000)))


def test_omega_block_straddles_a_pattern_period():
    lo, hi = 5 * PATTERN_PERIOD - 700, 5 * PATTERN_PERIOD + 700
    assert_matches_oracle(lo, hi, primes_up_to(math.isqrt(hi - 1)))


def test_omega_block_pattern_primes_above_the_root():
    """Up to hi = 169 the root isqrt(hi - 1) is below 13 (below 11 up to
    hi = 121), so 13 (and 11) is never sieved as a prime, yet the pattern
    still adds its hit; the cofactor test must then leave those n alone.
    At hi = 170, 13 reaches the root and is left to the pattern."""
    table = primes_up_to(13)
    expected = [omega_single(n) for n in range(1, 170)]
    for hi in range(2, 171):
        for lo in sorted({1, hi // 2, hi - 1}):
            assert omega_block(lo, hi, table).values.tolist() == expected[lo - 1 : hi - 1]


def test_omega_block_full_block_tiles_the_pattern():
    """A 2^20 block spans about nine pattern periods: check every n within
    3 of each period boundary in it and 3000 random n."""
    lo = 1 + 7 * PATTERN_PERIOD
    hi = lo + (1 << 20)
    values = omega_block(lo, hi, primes_up_to(math.isqrt(hi - 1))).values
    edges = range(8 * PATTERN_PERIOD, hi, PATTERN_PERIOD)
    positions = {n - lo for edge in edges for n in range(edge - 3, edge + 4)}
    positions.update(random.Random(120120).sample(range(hi - lo), 3000))
    for i in sorted(positions):
        assert int(values[i]) == omega_single(lo + i), lo + i


def test_omega_block_validates_arguments():
    table = primes_up_to(10)
    with pytest.raises(ValueError):
        omega_block(0, 5, table)
    with pytest.raises(ValueError):
        omega_block(5, 5, table)
    with pytest.raises(ValueError):
        omega_block(1, 1000, table)  # table too small for isqrt(999)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        omega_block(2**64 - 4, 2**64 + 1, table)


def test_segment_bounds_cover_exactly():
    bounds = list(segment_bounds(10**5, 2**12))
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


def test_pooled_stream_builds_no_parent_table(monkeypatch):
    # Each pool worker builds its own prime table; the parent needs none.
    calls = []

    def counting_primes_up_to(limit):
        calls.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(sieve, "primes_up_to", counting_primes_up_to)
    pooled = [s.values for s in iter_segments(5000, segment_size=1024, workers=2)]
    assert calls == []
    serial = [s.values for s in iter_segments(5000, segment_size=1024)]
    assert calls == [70]
    assert np.array_equal(np.concatenate(pooled), np.concatenate(serial))


def test_pooled_segments_do_not_alias():
    """Pooled blocks come back through one shared buffer; each yielded
    array must be its own copy, equal to the serial block."""
    serial = list(iter_segments(50_000, segment_size=1024))
    pooled = list(iter_segments(50_000, segment_size=1024, workers=2))
    assert [(s.lo, s.hi) for s in pooled] == [(s.lo, s.hi) for s in serial]
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.values, b.values)
    for i, a in enumerate(pooled):
        for b in pooled[i + 1 :]:
            assert not np.shares_memory(a.values, b.values)


def test_pooled_stream_under_spawn():
    # A spawned worker inherits nothing, so the shared buffer must reach it
    # by pickling.
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        pooled = [s.values for s in iter_segments(5000, segment_size=1024, workers=2)]
    finally:
        multiprocessing.set_start_method(method, force=True)
    serial = [s.values for s in iter_segments(5000, segment_size=1024)]
    assert np.concatenate(pooled).tobytes() == np.concatenate(serial).tobytes()


def test_stream_schedule_memory_is_bounded():
    # The block schedule of 10^9 in 1024-wide blocks is about a million
    # bounds; they are made as they are read, not listed up front.
    tracemalloc.start()
    try:
        next(iter_segments(10**9, segment_size=1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _brute_force_powers(lo, hi, primes):
    """(q, start, inc) of every p^e < hi with p <= isqrt(hi - 1) and a
    multiple in [lo, hi), except the powers dividing 120120, in plain
    Python."""
    found = []
    for p in primes:
        if p > math.isqrt(hi - 1):
            break
        inc = 1 + (round(512 * math.log2(p)) << 16)
        q = p
        while q < hi:
            start = -lo % q
            if PATTERN_PERIOD % q and start < hi - lo:
                found.append((q, start, inc))
            q *= p
    return sorted(found)


def test_prime_powers_match_brute_force():
    rng = random.Random(20261018)
    table = primes_up_to(math.isqrt(10**13))
    cases = [(1, 2), (1, 170), (2, 10**4)]
    for _ in range(30):
        hi = rng.randrange(3, 10 ** rng.randint(2, 13))
        lo = max(1, hi - rng.randrange(1, 5000))
        cases.append((lo, hi))
    primes = table.primes.tolist()
    for lo, hi in cases:
        # The shared table is far larger than most roots; a table sized to
        # the root must give the same powers.
        small = primes_up_to(max(2, math.isqrt(hi - 1)))
        expected = _brute_force_powers(lo, hi, primes)
        for t in (table, small):
            got = sorted(
                (q, start, inc)
                for group in _prime_powers(lo, hi, t)
                for q, start, inc in zip(*(a.tolist() for a in group))
            )
            assert got == expected, (lo, hi, t.limit)


def test_cached_powers_stop_below_2_to_64():
    # With limit 2^32 - 1 a block may reach hi = 2^64, so the cached powers
    # of a prime run up to the last one below 2^64 and never wrap.
    primes = primes_up_to(541).primes
    assert len(primes) == 100
    table = PrimeTable(limit=2**32 - 1, primes=primes)
    expected = []
    for p in primes.tolist():
        inc = 1 + (round(512 * math.log2(p)) << 16)
        e = 3
        while p**e < 2**64:
            if PATTERN_PERIOD % p**e:
                expected.append((p**e, inc))
            e += 1
    q, inc = table._higher_powers
    assert list(zip(q.tolist(), inc.tolist())) == sorted(expected)


def test_iter_segments_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        list(iter_segments(0))
    with pytest.raises(ValueError):
        list(iter_segments(10, workers=0))
    with pytest.raises(ValueError):
        list(iter_segments(10, segment_size=0))
    with pytest.raises(ValueError, match="workers"):
        next(iter_segments(10, workers=sieve.MAX_WORKERS + 1))
    with pytest.raises(ValueError, match="segment_size"):
        next(iter_segments(10, segment_size=sieve.MAX_SEGMENT_SIZE + 1))

    # No block reaches past 2**64, so the stream is refused before it asks
    # for a prime table to 2**32 (4 GiB).
    def no_table(limit):
        pytest.fail(f"a prime table to {limit} was built")

    monkeypatch.setattr(sieve, "primes_up_to", no_table)
    with pytest.raises(ValueError, match="x_max must be below 2\\*\\*64"):
        next(iter_segments(2**64))


def test_trial_division_oracle_matches_omega_single():
    """The selftest's vectorised oracle is omega_single done for many n at
    once: equal on every n <= 10^5 and on 200 n near 10^9."""
    small = np.arange(1, 10**5 + 1)
    assert _omega_trial_division(small).tolist() == [omega_single(n) for n in range(1, 10**5 + 1)]
    rng = np.random.default_rng(1729)
    high = 10**9 + rng.integers(0, 10**6, size=200)
    assert _omega_trial_division(high).tolist() == [omega_single(int(n)) for n in high]


def test_uint8_headroom():
    # Largest Omega below 2^20 is 20 (n = 2^20); far below the uint8 ceiling.
    values = omega_block(1, 2**20 + 1, primes_up_to(1024)).values
    assert int(values.max()) == 20
