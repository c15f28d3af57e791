"""Tally and transform tests: brute-force oracles at small x, the
histogram fold against a plain bincount, one cached histogram per segment
shared by every modulus, windows (tallies with lo > 1) that add up to the
full tally, exactness of the forward/inverse pair, and corruption
detection."""

import math
import random

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test is skipped, the rest still runs
    given = None

from omegadist import sieve
from omegadist.residues import (
    CharacterSumSet,
    InconsistentTransformError,
    ResidueTally,
    counts_from_sums,
    inverse_residuals,
    new_tally,
    root_table,
    sums_from_counts,
    tally_segment,
)
from omegadist.sieve import (
    OmegaSegment,
    iter_segments,
    omega_block,
    omega_histogram,
    omega_single,
    primes_up_to,
)


def brute_counts(m, x):
    counts = [0] * m
    for n in range(1, x + 1):
        counts[omega_single(n) % m] += 1
    return counts


def test_root_table_unit_circle():
    roots = root_table(12)
    assert roots[0] == 1.0 + 0.0j
    assert np.allclose(np.abs(roots), 1.0, atol=1e-15)
    # 12th roots include i at r = 3 and -1 at r = 6
    assert abs(roots[3] - 1j) < 1e-15
    assert abs(roots[6] + 1.0) < 1e-15


def test_constructors_validate_arguments():
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        root_table(0)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        new_tally(0)
    with pytest.raises(ValueError, match="lo must be >= 1"):
        new_tally(3, lo=0)


@pytest.mark.parametrize("m,x,expected", [(3, 20, [5, 9, 6]), (2, 10, [5, 5])])
def test_tally_known_values(m, x, expected, tally_of):
    assert tally_of(m, x).counts.tolist() == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 12])
def test_tally_matches_brute_force(m, tally_of):
    x = 300
    assert tally_of(m, x).counts.tolist() == brute_counts(m, x)


def test_tally_counts_sum_to_range_length(tally_of):
    tally = tally_of(5, 4321)
    assert int(tally.counts.sum()) == 4321
    assert tally.lo == 1 and tally.x == 4321


def test_tally_segment_requires_contiguity():
    table = primes_up_to(10)
    tally = new_tally(3)
    tally_segment(tally, omega_block(1, 11, table))
    with pytest.raises(ValueError):
        tally_segment(tally, omega_block(12, 20, table))  # gap at 11


def plain_fold(values, m):
    return np.bincount(np.asarray(values, dtype=np.intp) % m, minlength=m)


if given is not None:

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 63), max_size=300),
        start=st.integers(0, 3),
        stop=st.integers(0, 3),
        moduli=st.lists(st.integers(1, 13), min_size=1, max_size=4),
    )
    def test_fold_counts_matches_bincount(values, start, stop, moduli):
        """tally_segment on a bare segment, with odd and even lengths, odd
        start offsets into the values, empty slices and prefilled counts:
        every modulus gets the plain bincount of the slice, folded."""
        base = np.array(values, dtype=np.uint8)
        piece = base[start : max(start, len(base) - stop)]
        segment = OmegaSegment(start + 1, start + 1 + len(piece), piece)
        for m in moduli:
            tally = new_tally(m, start + 1)
            tally.counts[:] = 7
            tally_segment(tally, segment)
            assert tally.x == start + len(piece)
            assert tally.counts.tolist() == (7 + plain_fold(piece, m)).tolist()

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_fold_counts_matches_bincount():
        pass


@pytest.mark.parametrize("length", [0, 1, 2, 3, 2**20 + 1])
def test_fold_counts_every_value_up_to_63(length):
    """tally_segment folds every Omega value 0..63 into its class."""
    values = (np.arange(length) * 37 % 64).astype(np.uint8)
    segment = OmegaSegment(1, length + 1, values)
    for m in (64, 5):
        tally = tally_segment(new_tally(m), segment)
        assert tally.counts.tolist() == plain_fold(values, m).tolist()


def test_tally_segment_histograms_a_segment_once(monkeypatch):
    """Tallying one segment for m = 1..12 counts its values once and gives
    each modulus the plain bincount of its values, folded."""
    segment = omega_block(1, 5001, primes_up_to(71))
    calls = []

    def counting_histogram(values):
        calls.append(len(values))
        return omega_histogram(values)

    monkeypatch.setattr(sieve, "omega_histogram", counting_histogram)
    for m in range(1, 13):
        got = tally_segment(new_tally(m), segment).counts
        assert got.tolist() == plain_fold(segment.values, m).tolist()
    assert calls == [5000]


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8])
def test_fold_counts_refuses_other_dtypes(dtype):
    """tally_segment refuses a bare slice of any dtype but uint8."""
    segment = OmegaSegment(1, 11, np.arange(10, dtype=dtype))
    with pytest.raises(TypeError, match="uint8"):
        tally_segment(new_tally(3), segment)


@pytest.mark.parametrize("values", [[64], [1, 64], [64, 1], [1, 2, 200]])
def test_fold_counts_refuses_values_from_64(values):
    """tally_segment refuses a bare slice holding a value of 64 or more."""
    values = np.array(values, dtype=np.uint8)
    segment = OmegaSegment(1, len(values) + 1, values)
    with pytest.raises(ValueError, match="below 64"):
        tally_segment(new_tally(3), segment)


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_tally_segment_refuses_other_dtypes(dtype):
    segment = OmegaSegment(lo=1, hi=11, values=np.arange(10, dtype=dtype))
    with pytest.raises(TypeError, match="uint8"):
        tally_segment(new_tally(3), segment)


def test_tally_segment_refuses_values_from_64():
    segment = OmegaSegment(lo=1, hi=4, values=np.array([1, 64, 2], dtype=np.uint8))
    tally = new_tally(3)
    with pytest.raises(ValueError, match="below 64"):
        tally_segment(tally, segment)
    assert tally.x == 0 and tally.counts.tolist() == [0, 0, 0]


def test_pooled_segments_tally_like_serial_ones():
    serial = list(iter_segments(20_000, segment_size=4096))
    pooled = list(iter_segments(20_000, segment_size=4096, workers=2))
    for m in (2, 3, 12):
        a, b = new_tally(m), new_tally(m)
        for x, y in zip(serial, pooled):
            tally_segment(a, x)
            tally_segment(b, y)
            assert a.counts.tolist() == b.counts.tolist() and a.x == b.x


def test_merge_of_adjacent_ranges():
    """Two adjacent windows, each tallied from new_tally(m, lo), keep their
    anchors and add up to the brute-force counts of 1..20; a window takes
    only the segment that starts right after its end."""
    table = primes_up_to(10)
    a = tally_segment(new_tally(4), omega_block(1, 11, table))
    b = tally_segment(new_tally(4, lo=11), omega_block(11, 21, table))
    assert (a.lo, a.x, b.lo, b.x) == (1, 10, 11, 20)
    assert (a.counts + b.counts).tolist() == brute_counts(4, 20)
    window = new_tally(4, lo=11)
    with pytest.raises(ValueError):
        tally_segment(window, omega_block(1, 11, table))
    with pytest.raises(ValueError):
        tally_segment(window, omega_block(12, 20, table))


def test_merge_random_partition_matches_full_tally(tally_of):
    """Cut 1..x at random points and tally each window [lo, hi) on its own:
    each window ends at hi - 1, and the windows add up to the tally of
    1..x, whatever the cut points."""
    m, x = 6, 2000
    table = primes_up_to(math.isqrt(x))
    rng = random.Random(5)
    cuts = sorted(rng.sample(range(2, x), 5))
    total = np.zeros(m, dtype=np.int64)
    for lo, hi in zip([1] + cuts, cuts + [x + 1]):
        window = tally_segment(new_tally(m, lo), omega_block(lo, hi, table))
        assert window.lo == lo and window.x == hi - 1
        total += window.counts
    assert total.tolist() == tally_of(m, x).counts.tolist()


def test_sums_k0_is_exactly_x(tally_of):
    sums = sums_from_counts(tally_of(7, 12345))
    assert sums.sums[0] == 12345 + 0j  # bitwise, not approximately


def test_sums_liouville_example(tally_of):
    # m = 2: S_1(x) = N_0 - N_1; at x = 10 the classes tie.
    sums = sums_from_counts(tally_of(2, 10))
    assert abs(sums.sums[1]) < 1e-12


def test_sums_match_direct_accumulation(tally_of):
    """Cross-check the transform against the definition: a per-n sum of
    unit roots (done in floating point only here, in the test)."""
    m, x = 5, 400
    values = omega_block(1, x + 1, primes_up_to(math.isqrt(x))).values
    roots = root_table(m)
    sums = sums_from_counts(tally_of(m, x))
    for k in range(m):
        direct = sum(roots[(k * int(v)) % m] for v in values)
        assert abs(sums.sums[k] - direct) < 1e-9


def test_conjugate_symmetry(tally_of):
    # Counts are real, so S_{m-k} is the conjugate of S_k.
    sums = sums_from_counts(tally_of(9, 3000))
    for k in range(1, 9):
        assert abs(sums.sums[9 - k] - np.conj(sums.sums[k])) < 1e-9


def test_parseval(tally_of):
    m, x = 8, 2500
    tally = tally_of(m, x)
    sums = sums_from_counts(tally)
    lhs = float(np.sum(np.abs(sums.sums) ** 2))
    rhs = m * float(np.sum(tally.counts.astype(np.float64) ** 2))
    assert abs(lhs - rhs) <= 1e-9 * rhs


@pytest.mark.parametrize("m", list(range(1, 13)))
def test_roundtrip_exact(m, tally_of):
    tally = tally_of(m, 1000)
    sums = sums_from_counts(tally)
    back = counts_from_sums(sums)
    assert np.array_equal(back.counts, tally.counts)
    assert back.x == tally.x
    worst_real, worst_imag = inverse_residuals(sums)
    assert worst_real < 1e-9 and worst_imag < 1e-9


def test_corrupted_sums_detected(tally_of):
    sums = sums_from_counts(tally_of(6, 500))
    bad = CharacterSumSet(m=6, x=500, sums=sums.sums + np.array([0, 0.5, 0, 0, 0, 0]))
    with pytest.raises(InconsistentTransformError):
        counts_from_sums(bad)
    # A real shift of S_0 moves every count by 1/6 off the integers and
    # leaves the imaginary parts alone: the rounding check must catch it.
    sums = sums_from_counts(tally_of(3, 500))
    sums.sums[0] += 0.5
    with pytest.raises(InconsistentTransformError, match="rounding residue"):
        counts_from_sums(sums)


def test_sums_require_anchor_at_one():
    delta = ResidueTally(m=3, x=20, counts=np.array([1, 2, 2]), lo=16)
    with pytest.raises(ValueError):
        sums_from_counts(delta)
