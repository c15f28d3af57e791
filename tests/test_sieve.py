"""Sieve unit tests: small known values, oracle equivalence on random blocks
and at the edges of the block sieve, segment-boundary independence and
argument validation."""

import bisect
import math
import multiprocessing
import pickle
import random
import tracemalloc

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped, the rest still runs
    given = None

from omegadist import sieve
from omegadist.sieve import (
    OmegaSegment,
    PrimeTable,
    _prime_powers,
    _omega_trial_block,
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


def _reference_primes(limit):
    """Every prime <= limit by the plain sieve of Eratosthenes over all
    integers, independent of the segmented odd-only sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def test_primes_up_to_matches_reference_at_every_small_limit():
    reference = _reference_primes(3000)
    for limit in range(2, 3001):
        expected = reference[: bisect.bisect_right(reference, limit)]
        assert primes_up_to(limit).primes.tolist() == expected, limit


def _edge_limits():
    # A segment holds _PRIME_SEGMENT odd numbers, 2 * _PRIME_SEGMENT
    # integers; the odd half of the block pattern repeats every 120120
    # integers, and an odd-only pattern of 3..13 would every 30030.
    span = 2 * sieve._PRIME_SEGMENT
    edges = [k * span for k in (1, 2, 3)] + [2 * 15015, 4 * 15015, 120120, 240240]
    squares = [p * p for p in (17, 19, 101, 1021, 1031)]
    return sorted(
        {e + d for e in edges for d in (-2, -1, 0, 1, 2)}
        | {q + d for q in squares for d in (-1, 0, 1)}
    )


def test_primes_up_to_matches_reference_at_segment_edges_and_squares():
    limits = _edge_limits()
    reference = _reference_primes(max(limits))
    for limit in limits:
        expected = reference[: bisect.bisect_right(reference, limit)]
        assert primes_up_to(limit).primes.tolist() == expected, limit


def test_primes_up_to_strikes_with_every_base_prime_over_many_segments(monkeypatch):
    """Each segment finds every base prime's first strike from its own
    bounds.  Over up to 123 short segments, of 2^12 flags and of 4099, a
    size prime to every base prime, the segments start at many residues of
    each base prime, and every base prime up to the root must strike each
    one it reaches: a segment that missed 131 kept 2,621,441 = 131 * 20011
    in the table at 2^18 flags a segment."""
    limits = range(100_000, 10**6 + 1, 9973)
    reference = _reference_primes(max(limits))
    for size in (1 << 12, 4099):
        monkeypatch.setattr(sieve, "_PRIME_SEGMENT", size)
        for limit in limits:
            expected = reference[: bisect.bisect_right(reference, limit)]
            assert primes_up_to(limit).primes.tolist() == expected, (size, limit)


def test_primes_up_to_pi_of_10_to_7():
    table = primes_up_to(10**7)
    assert table.primes.dtype == np.uint32
    assert len(table) == 664_579
    assert table.primes[-1] == 9_999_991


def test_primes_up_to_pi_of_10_to_8():
    # pi(10^8) = 5,761,455: 48 segments of 2^20 flags, the last one short.
    table = primes_up_to(10**8)
    assert len(table) == 5_761_455
    assert table.primes[-1] == 99_999_989


def test_primes_up_to_refuses_2_to_32_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit must be below 2\\*\\*32"):
            primes_up_to(2**32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_prime_table_to_10_to_8_stays_small(peak_rss_growth_mb):
    # The table itself is 23 MB of uint32; a bool array plus an int64 copy
    # added 183 MB.
    assert peak_rss_growth_mb("primes_up_to(10**8)") < 50


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
    so 2 is strided from length 256 on; at 8192 the sparse fold's powers
    hit up to 127 times each."""
    lo = 10**6 + 3
    assert_matches_oracle(lo, lo + length, primes_up_to(math.isqrt(lo + length)))


# Every block starts from a tiled pattern of period 2^3 * 3 * 5 * 7 * 11 * 13.
PATTERN_PERIOD = 120120


def _strided_fold(words, q, start, inc):
    """The sparse fold done one power at a time with a strided slice over
    the block, words[:-1]."""
    block = words[:-1]
    for step, first, add in zip(q.tolist(), start.tolist(), inc.tolist()):
        block[first::step] += add


@pytest.fixture(scope="module")
def table_to_10_to_8():
    return primes_up_to(10**8)


@pytest.mark.parametrize("lo", [10**12, 10**14, 10**16])
def test_fold_sparse_matches_strided_reference_on_full_blocks(table_to_10_to_8, lo):
    """The round-by-round fold of a 2^20 block's real sparse groups (77k
    powers at 10^12, 380k at 10^16) adds what one strided slice per power
    adds, onto arbitrary starting words: the sieve's uint16 words, which
    wrap, and uint32 words."""
    n = 1 << 20
    groups = []
    for q, start, inc in _prime_powers(lo, lo + n, table_to_10_to_8):
        dense = int(np.searchsorted(q, q.dtype.type(n // sieve._DENSE_HITS), side="right"))
        groups.append((q[dense:], start[dense:], inc[dense:]))
    assert len(groups[0][0]) > 10 * sieve._ROUND_MIN
    rng = np.random.default_rng(lo % 1000 + 17)
    for dtype in (np.uint16, np.uint32):
        words = rng.integers(0, np.iinfo(dtype).max, n + 1, endpoint=True, dtype=dtype)
        expected = words.copy()
        for group in groups:
            sieve._fold_sparse(words, *group)
            _strided_fold(expected, *group)
        assert np.array_equal(words[:n], expected[:n]), dtype


if given is not None:

    @st.composite
    def sparse_groups(draw):
        """A synthetic sparse group over n words: up to _ROUND_MIN + 64
        ascending powers of one dtype, so that empty and small groups run
        the rounds too, each above (n - 1) / 128 so that it hits at
        most 128 times, a share of them at most n, with starts anywhere
        below n and arbitrary increments of the words' dtype, uint16 as in
        the sieve or uint32."""
        dtype = draw(st.sampled_from([np.uint32, np.uint64]))
        word = draw(st.sampled_from([np.uint16, np.uint32]))
        n = draw(st.integers(1, 1 << draw(st.sampled_from([4, 10, 16]))))
        count = draw(st.integers(0, sieve._ROUND_MIN + 64))
        near = draw(st.integers(0, count))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q_min = n // sieve._DENSE_HITS + 1
        q_max = int(np.iinfo(dtype).max)
        q = np.concatenate([
            rng.integers(q_min, max(q_min, n), near, endpoint=True, dtype=dtype),
            rng.integers(q_min, q_max, count - near, endpoint=True, dtype=dtype),
        ])
        q.sort()
        start = rng.integers(0, n, count, dtype=np.int64)
        top = np.iinfo(word).max
        inc = rng.integers(0, top, count, endpoint=True, dtype=word)
        words = rng.integers(0, top, n + 1, endpoint=True, dtype=word)
        return words, q, start, inc

    @settings(max_examples=60, deadline=None)
    @given(group=sparse_groups())
    def test_fold_sparse_matches_strided_reference_on_synthetic_groups(group):
        words, q, start, inc = group
        expected = words.copy()
        sieve._fold_sparse(words, q, start, inc)
        _strided_fold(expected, q, start, inc)
        assert np.array_equal(words[:-1], expected[:-1])

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_fold_sparse_matches_strided_reference_on_synthetic_groups():
        pass


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


def test_omega_block_narrowest_cofactor_gap():
    """The c = 1 and c > r weight sums are more than 15 * (L - 1/2) - Omega
    units apart, L = log2(r + 1), which is smallest for small roots r.
    Every hi up to 4096, from three starts, with a table to exactly
    max(2, isqrt(hi - 1))."""
    expected = np.array([omega_single(n) for n in range(1, 4096)], dtype=np.uint8)
    tables = {}
    for hi in range(2, 4097):
        limit = max(2, math.isqrt(hi - 1))
        if limit not in tables:
            tables[limit] = primes_up_to(limit)
        for lo in sorted({1, hi // 2, hi - 1}):
            values = omega_block(lo, hi, tables[limit]).values
            assert np.array_equal(values, expected[lo - 1 : hi - 1]), (lo, hi)


@pytest.mark.parametrize(
    "n",
    [
        2**63,  # 63 hits, the most a word's 6-bit hit field holds
        2**62 * 3,
        3**40,  # 40 * 24 = 960 units
        541**7,  # 7 * 136 = 952 units
    ],
)
def test_omega_block_top_of_the_word(n):
    """One-element blocks whose hit count and weight sum come near the top
    of their 6-bit and 10-bit fields, where a carry between the fields
    would show.  The table reaches 2^32 - 1 but holds the primes up to 541
    only, which are all these n need."""
    table = PrimeTable(limit=2**32 - 1, primes=primes_up_to(541).primes)
    assert omega_block(n, n + 1, table).values.tolist() == [omega_single(n)]


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


if given is not None:

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.integers(1, 13).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e)),
        residue=st.integers(0, 5),
        length=st.integers(1, 2048),
    )
    @example(lo=1, residue=1, length=1)
    @example(lo=1, residue=2, length=3)  # 2, 3 and 4: no value
    @example(lo=PATTERN_PERIOD, residue=5, length=2048)
    def test_wheel_block_is_the_values_coprime_to_6(high_table, lo, residue, length):
        """A wheel-6 block is the stride-1 block's values at its n coprime
        to 6, from lo in every residue mod 6: two interleaved lanes from
        their sixths of the pattern, without 4, 9, 16, 27, ..., first
        multiples found per lane."""
        lo = max(1, lo - lo % 6 + residue)
        whole = omega_block(lo, lo + length, high_table).values
        wheel = omega_block(lo, lo + length, high_table, wheel=6)
        assert (wheel.lo, wheel.hi) == (lo, lo + length)
        assert wheel.values.tolist() == whole[_coprime_to_6(lo, lo + length)].tolist()

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_wheel_block_is_the_values_coprime_to_6():
        pass


def _coprime_to_6(lo, hi):
    """The mask of the n in [lo, hi) coprime to 6."""
    return np.isin(np.arange(lo % 6, lo % 6 + hi - lo) % 6, (1, 5))


def _truncated_table():
    """A table that claims every prime below 2^32 but holds those up to 541
    only: it covers any block below 2^64 with few powers to sieve."""
    return PrimeTable(limit=2**32 - 1, primes=primes_up_to(541).primes)


@pytest.mark.parametrize(
    "lo, length",
    [
        (3**40, 1),  # no n coprime to 6
        (541**7, 1),
        (3**40 - 4000, 4001),
        (3 * 3**40 - 2**64 - 200, 4000),
        (541**7 + 2, 4000),
    ],
)
def test_odd_block_near_2_to_64(lo, length):
    """Wheel-6 blocks, whose n are odd, near the top of the word with a
    truncated table: past a power q > 2**63 the next multiple lies above
    2**64, and no index may wrap into the block."""
    table = _truncated_table()
    whole = omega_block(lo, lo + length, table).values
    wheel = omega_block(lo, lo + length, table, wheel=6).values
    assert wheel.tolist() == whole[_coprime_to_6(lo, lo + length)].tolist()
    if length == 1:
        assert wheel.tolist() == ([omega_single(lo)] if math.gcd(lo, 6) == 1 else [])


@pytest.mark.parametrize(
    "q, lo",
    [
        (7**22, 1102361169205388615),
        (7**22, 8922003266371364713),
        (11**18, 9352842493751605775),
    ],
)
def test_wheel_first_hit_does_not_wrap(q, lo):
    """Lanes from lo where the first multiple lo + s + t * q of the lane
    lies past 2**64: s + t * q wraps, in uint64, to an index below 3 of
    this block, where the sieve must add no hit."""
    s = -lo % q
    t = -s * q % 6
    assert s + t * q >= 6 * 4000 and (s + t * q) % 2**64 < 18
    table = _truncated_table()
    whole = omega_block(lo, lo + 4000, table).values
    wheel = omega_block(lo, lo + 4000, table, wheel=6).values
    assert wheel.tolist() == whole[_coprime_to_6(lo, lo + 4000)].tolist()


@pytest.mark.parametrize("e", [3, 4, 5, 20, 39, 40])
def test_wheel_block_skips_the_powers_of_3(e):
    """Blocks around 3^e with a table of 2 and 3 only, so that the powers
    sieved beside the pattern's are those of 2 and 3: 9, 27, ..., 3^e
    divide no n coprime to 6 and add nothing to the wheel block, which
    around 3^e holds 3^e - 2, 3^e + 2 and 3^e + 4."""
    table = PrimeTable(limit=2**32 - 1, primes=np.array([2, 3], dtype=np.uint32))
    lo, hi = 3**e - 3, 3**e + 5
    whole = omega_block(lo, hi, table).values
    wheel = omega_block(lo, hi, table, wheel=6).values
    assert len(wheel) == 3
    assert wheel.tolist() == whole[_coprime_to_6(lo, hi)].tolist()


def test_omega_block_validates_the_wheel():
    table = primes_up_to(10)
    for wheel in (0, 2, 3, -1, 30):
        with pytest.raises(ValueError, match="wheel must be 1 or 6"):
            omega_block(1, 10, table, wheel=wheel)


@pytest.mark.parametrize("segment_size", [1, 2, 3, 1025, 1031])
def test_wheel_stream_covers_the_n_coprime_to_6(segment_size):
    """Every x_max to 60: the blocks start at lo = 1 (mod 3), each hi is
    the next lo, the last hi is x_max + 1, and the values are Omega of the
    n <= x_max coprime to 6, segment_size of them a block but the last,
    which holds at most that many: a buffer slot's worth."""
    expected = [omega_single(n) for n in range(1, 61) if math.gcd(n, 6) == 1]
    for x_max in range(1, 61):
        segments = list(iter_segments(x_max, segment_size=segment_size, wheel=6))
        assert segments[0].lo == 1 and segments[-1].hi == x_max + 1
        for a, b in zip(segments, segments[1:]):
            assert a.hi == b.lo
        for segment in segments:
            assert segment.lo % 3 == 1
            length = sum(math.gcd(n, 6) == 1 for n in range(segment.lo, segment.hi))
            assert len(segment.values) == length <= segment_size
        assert all(len(segment.values) == segment_size for segment in segments[:-1])
        values = np.concatenate([segment.values for segment in segments])
        assert values.tolist() == expected[: sieve.wheel_count(x_max)], x_max


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


def test_pooled_stream_sieves_its_one_table_in_the_parent(monkeypatch):
    # The parent sieves the stream's one table, the same one a serial
    # stream sieves, and its workers share it.
    calls = []

    def counting_primes_up_to(limit):
        calls.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(sieve, "primes_up_to", counting_primes_up_to)
    pooled = [s.values for s in iter_segments(5000, segment_size=1024, workers=2)]
    assert calls == [70]
    serial = [s.values for s in iter_segments(5000, segment_size=1024)]
    assert calls == [70, 70]
    assert np.array_equal(np.concatenate(pooled), np.concatenate(serial))


def test_pool_worker_sieves_its_table_once(tmp_path, monkeypatch):
    # The pool's table is sieved once, by the parent; no worker sieves one.
    # Forked workers inherit the patch, so a table sieved by a worker would
    # show up in the log too, which is a file because they cannot append to
    # the parent's list.
    log = tmp_path / "limits"

    def logging_primes_up_to(limit):
        with log.open("a") as f:
            f.write(f"{limit}\n")
        return primes_up_to(limit)

    monkeypatch.setattr(sieve, "primes_up_to", logging_primes_up_to)
    x_max = 50 * 1024
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    try:
        blocks = list(iter_segments(x_max, segment_size=1024, workers=2))
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert len(blocks) == 50
    assert log.read_text().split() == [str(math.isqrt(x_max))]


def test_pool_workers_share_the_table_caches(tmp_path, monkeypatch):
    # The parent fills the table's caches before the pool forks, so no
    # worker packs the primes' increments again.  The pattern's own call to
    # _increments is on its handful of primes, not the table's.
    log = tmp_path / "lengths"
    increments = sieve._increments

    def logging_increments(primes):
        with log.open("a") as f:
            f.write(f"{len(primes)}\n")
        return increments(primes)

    monkeypatch.setattr(sieve, "_increments", logging_increments)
    x_max = 50 * 1024
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    try:
        blocks = list(iter_segments(x_max, segment_size=1024, workers=2))
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert len(blocks) == 50
    table_length = len(primes_up_to(math.isqrt(x_max)))
    assert log.read_text().split().count(str(table_length)) == 1


def test_pickled_table_caches_stay_read_only(monkeypatch):
    # A spawn or forkserver worker gets the table pickled, and unpickling
    # gives numpy arrays back writable; the initializer seals them again.
    table = primes_up_to(10_000)
    table._prime_increments, table._higher_powers
    copy = pickle.loads(pickle.dumps(table))
    assert copy._prime_increments.flags.writeable
    monkeypatch.setattr(sieve, "_worker_buffer", None)
    monkeypatch.setattr(sieve, "_stream_table", None)
    sieve._start_worker(bytearray(16), copy)
    assert sieve._stream_table is copy
    for cache in (copy._prime_increments, *copy._higher_powers):
        assert not cache.flags.writeable
    assert np.array_equal(copy._prime_increments, table._prime_increments)
    assert all(map(np.array_equal, copy._higher_powers, table._higher_powers))


def test_increments_in_chunks_match_one_pass(monkeypatch):
    # The logs are taken a chunk at a time; with chunks of 1000 the 9,592
    # primes to 10^5 cross nine boundaries and end in a short chunk, and
    # every packed increment is that of the one-pass expression.
    primes = primes_up_to(100_000).primes
    weights = np.rint(sieve._LOG_SCALE * np.log2(primes)).astype(np.uint16)
    monkeypatch.setattr(sieve, "_INCREMENT_CHUNK", 1000)
    increments = sieve._increments(primes)
    assert increments.dtype == np.uint16
    assert np.array_equal(increments, (weights << 6) + np.uint16(1))


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


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_pooled_stream_under_spawn(start_method):
    # A spawned or forkserver worker inherits nothing, so the shared buffer
    # and the prime table must reach it by pickling.
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(start_method, force=True)
    try:
        pooled = [s.values for s in iter_segments(5000, segment_size=1024, workers=2)]
    finally:
        multiprocessing.set_start_method(method, force=True)
    serial = [s.values for s in iter_segments(5000, segment_size=1024)]
    assert np.concatenate(pooled).tobytes() == np.concatenate(serial).tobytes()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pooled_odd_stream_matches_the_serial_one(start_method):
    # Each slot of the shared buffer is segment_size wide; a wheel-6 block,
    # whose n are odd, fills it with the values of three times as many
    # integers.
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(start_method, force=True)
    try:
        pooled = list(iter_segments(20_001, segment_size=1031, workers=2, wheel=6))
    finally:
        multiprocessing.set_start_method(method, force=True)
    serial = list(iter_segments(20_001, segment_size=1031, wheel=6))
    assert [(s.lo, s.hi) for s in pooled] == [(s.lo, s.hi) for s in serial]
    assert np.concatenate([s.values for s in pooled]).tobytes() == np.concatenate(
        [s.values for s in serial]
    ).tobytes()


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
        inc = 1 + (round(15 * math.log2(p)) << 6)
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


def _plain_higher_powers(primes, cap):
    """(p^e, increment of p) for every p^e <= cap with e >= 3 that does not
    divide 120120, ascending, in plain Python."""
    expected = []
    for p in primes:
        inc = 1 + (round(15 * math.log2(p)) << 6)
        e = 3
        while p**e <= cap:
            if PATTERN_PERIOD % p**e:
                expected.append((p**e, inc))
            e += 1
    return sorted(expected)


def test_cached_powers_stop_below_2_to_64():
    # With limit 2^32 - 1 a block may reach hi = 2^64, so the cached powers
    # of a prime run up to the last one below 2^64 and never wrap.
    primes = primes_up_to(541).primes
    assert len(primes) == 100
    table = PrimeTable(limit=2**32 - 1, primes=primes)
    q, inc = table._higher_powers
    assert list(zip(q.tolist(), inc.tolist())) == _plain_higher_powers(
        primes.tolist(), 2**64 - 1
    )
    # Every limit up to 2048: the cap (limit + 1)^2 - 1 crosses the cube of
    # each prime up to 157 and many higher powers.
    primes = primes_up_to(2048).primes.tolist()
    for limit in range(2, 2049):
        q, inc = primes_up_to(limit)._higher_powers
        expected = _plain_higher_powers(primes, (limit + 1) ** 2 - 1)
        assert list(zip(q.tolist(), inc.tolist())) == expected, limit


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
    for wheel in (0, 2, 3, -1):
        with pytest.raises(ValueError, match="wheel must be 1 or 6"):
            next(iter_segments(10, wheel=wheel))

    # No block reaches past 2**64, so the stream is refused before it asks
    # for a prime table to 2**32 (4 GiB).
    def no_table(limit):
        pytest.fail(f"a prime table to {limit} was built")

    monkeypatch.setattr(sieve, "primes_up_to", no_table)
    with pytest.raises(ValueError, match="x_max must be below 2\\*\\*64"):
        next(iter_segments(2**64))


def test_trial_division_oracle_matches_omega_single():
    """The selftest's oracle is omega_single done for a block of n at once:
    equal on 200 consecutive n near 10^9."""
    lo = 10**9 + int(np.random.default_rng(1729).integers(0, 10**6))
    assert _omega_trial_block(lo, lo + 200).tolist() == [omega_single(n) for n in range(lo, lo + 200)]


def test_trial_block_oracle_matches_omega_single_to_10_to_5():
    expected = [omega_single(n) for n in range(1, 10**5 + 1)]
    assert _omega_trial_block(1, 10**5 + 1).tolist() == expected


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 2),
        (2, 3),
        (4, 5),
        (2**39, 2**39 + 1),
        (3**25, 3**25 + 1),
        (3**25 - 40, 3**25 + 40),
        # p^2 with p = isqrt(hi - 1), the last divisor tried.
        (1009**2 - 30, 1009**2 + 1),
        (999_983**2, 999_983**2 + 1),
        (999_983**2 - 8, 999_983**2 + 8),
        # p^3, whose third factor p the block divides out on the p^3 slice.
        (101**3 - 5, 101**3 + 1),
        (9973**3 - 8, 9973**3 + 8),
    ],
)
def test_trial_block_oracle_at_edge_blocks(lo, hi):
    assert _omega_trial_block(lo, hi).tolist() == [omega_single(n) for n in range(lo, hi)]


def test_trial_division_oracle_on_squares_semiprimes_and_composite_divisors():
    """Prime squares near 10^9, the largest one setting the last divisor
    tried; products of two primes just below 31623 = isqrt(10^9) + 1; and
    n that the composite divisors 25, 35 and 5^2..5^12 divide, with a prime
    cofactor above the divisors or without one."""
    primes = [p for p in range(31622, 31400, -1) if omega_single(p) == 1][:6]
    squares = [p * p for p in primes]
    products = [p * q for i, p in enumerate(primes) for q in primes[i + 1 :]]
    composite = [25 * 1_000_003, 35 * 1_000_003, 25 * 31607, 35 * 1009, 5**12, 3 * 5**12]
    for n in composite + products + squares:
        assert _omega_trial_block(n, n + 1).tolist() == [omega_single(n)], n


def test_trial_division_oracles_do_not_use_the_sieve(monkeypatch):
    def fail(*args):
        pytest.fail("a trial-division oracle called into the sieve")

    for name in ("primes_up_to", "omega_block", "_small_prime_pattern", "_increments"):
        monkeypatch.setattr(sieve, name, fail)
    assert _omega_trial_block(1, 2001).tolist() == [omega_single(n) for n in range(1, 2001)]
    for n in (10**9 + 7, 2**29, 999_983**2, 25 * 1_000_003):
        assert _omega_trial_block(n, n + 1).tolist() == [omega_single(n)], n


if given is not None:

    @settings(max_examples=12, deadline=None)
    @given(
        lo=st.integers(1, 12).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e)),
        length=st.integers(1, 2048),
    )
    def test_trial_block_oracle_matches_omega_single_on_random_blocks(lo, length):
        expected = [omega_single(n) for n in range(lo, lo + length)]
        assert _omega_trial_block(lo, lo + length).tolist() == expected

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_trial_block_oracle_matches_omega_single_on_random_blocks():
        pass

if given is not None:

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(0, 63), min_size=1, max_size=300),
        start=st.integers(0, 1),
    )
    @example(values=[63], start=0)
    @example(values=[0, 63], start=0)
    @example(values=[0, 63, 7], start=1)
    def test_segment_histogram_matches_bincount(values, start):
        """Odd and even lengths down to 1, from an odd byte offset too: the
        cached histogram is the plain 64-bin bincount, read-only, and is
        counted once."""
        base = np.array(values, dtype=np.uint8)
        piece = base[min(start, len(base) - 1) :]
        segment = OmegaSegment(lo=1, hi=len(piece) + 1, values=piece)
        hist = segment.histogram
        assert hist.tolist() == np.bincount(piece, minlength=64).tolist()
        assert not hist.flags.writeable
        assert segment.histogram is hist

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_segment_histogram_matches_bincount():
        pass


@pytest.mark.parametrize("length", [1, 2, 2**14 - 1, 2**14, 2**14 + 1])
def test_histogram_on_both_sides_of_the_paired_count(length):
    """Below 2^14 values a grouped bincount, from 2^14 on the paired count:
    both give the 64-bin histogram and refuse a value of 64."""
    values = np.random.default_rng(length).integers(0, 64, length, dtype=np.uint8)
    counts = sieve.omega_counts(values, [len(values)])
    assert counts.tolist() == [np.bincount(values, minlength=64).tolist()]
    values[-1] = 64
    with pytest.raises(ValueError, match="below 64"):
        sieve.omega_counts(values, [len(values)])


def _random_ends(rng, draw):
    """Ascending piece ends, mixing empty, one-value, short and long pieces
    on both sides of 2^14; every tenth draw is 3000 pieces of up to 40
    values, more than one group of short pieces may hold."""
    if draw % 10 == 9:
        return np.cumsum(rng.integers(0, 41, 3000))
    lengths = [
        int(rng.choice([0, 1, rng.integers(2, 2**14), 2**14 - 1, 2**14, rng.integers(2**14, 2**17)]))
        for _ in range(rng.integers(1, 8))
    ]
    return np.cumsum(lengths)


def test_omega_counts_matches_a_bincount_per_piece():
    """420 draws of random ends, from an odd byte offset in half of them,
    each with one m from 1 to 70 (every m six times), and empty values:
    row k is the 64-bin bincount of piece k, and folded onto the m classes
    by fold_classes it is the fold of that bincount."""
    rng = np.random.default_rng(2009)
    for draw in range(420):
        m, offset = 1 + draw % 70, draw % 2
        ends = _random_ends(rng, draw)
        base = rng.integers(0, 64, offset + ends[-1], dtype=np.uint8)
        values = base[offset:]
        starts = np.concatenate(([0], ends[:-1]))
        bins = np.array([np.bincount(values[a:b], minlength=64) for a, b in zip(starts, ends)])
        expected = np.array([sieve.fold_classes(row, m) for row in bins])
        counts = sieve.omega_counts(values, ends)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, bins), ends.tolist()
        assert np.array_equal(sieve.fold_classes(counts, m), expected), (m, ends.tolist())
    empty = np.zeros(0, dtype=np.uint8)
    for ends in ([0], [0, 0, 0]):
        assert sieve.omega_counts(empty, ends).tolist() == [[0] * 64] * len(ends)


@pytest.mark.parametrize("where", ["middle short piece", "long piece", "last piece"])
def test_omega_counts_refuses_a_64_in_any_piece(where):
    """A 64 in one short piece used to be counted as a 0 of the next."""
    values = np.zeros(3 * 2**14, dtype=np.uint8)
    ends = [1024, 2048, 3072, 3072 + 2**14, 3 * 2**14]
    at = {"middle short piece": 1029, "long piece": 5000, "last piece": 3 * 2**14 - 1}[where]
    values[at] = 64
    with pytest.raises(ValueError, match="below 64"):
        sieve.omega_counts(values, ends)


@pytest.mark.parametrize("length", [1000, 2**15 + 1])
def test_omega_counts_reads_strided_values(length):
    """Every other value of a block, on the grouped path and on the paired
    count, which needs contiguous bytes."""
    values = np.random.default_rng(length).integers(0, 64, 2 * length, dtype=np.uint8)[::2]
    expected = np.bincount(values, minlength=64)
    assert sieve.omega_counts(values, [len(values)]).tolist() == [expected.tolist()]
    assert OmegaSegment(1, length + 1, values).histogram.tolist() == expected.tolist()


def test_uint8_headroom():
    # Largest Omega below 2^20 is 20 (n = 2^20); far below the uint8 ceiling.
    values = omega_block(1, 2**20 + 1, primes_up_to(1024)).values
    assert int(values.max()) == 20
