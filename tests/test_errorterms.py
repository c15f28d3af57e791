"""Checkpoint and growth-fit tests: exact residual snapshots, the zero-sum
identity, schedule arithmetic, checkpoints that cut segments, and synthetic
fits with known slopes."""

import math

import numpy as np
import pytest

from omegadist import errorterms, sieve
from omegadist.errorterms import (
    DEFAULT_RATIO,
    MAX_CHECKPOINTS,
    CheckpointSeries,
    GrowthFit,
    InsufficientDataError,
    character_growth_exponent,
    checkpoint_schedule,
    growth_exponent,
    record_many,
    scaled_residuals,
)
from omegadist.residues import new_tally, root_table, tally_segment
from omegadist.sieve import (
    OmegaSegment,
    iter_segments,
    omega_block,
    primes_up_to,
)


def series_of(tally):
    """The one-checkpoint series of a tally of 1..x."""
    return CheckpointSeries(tally.m, np.array([tally.x]), tally.counts[None])


def test_checkpoint_known_example(tally_of):
    cp = series_of(tally_of(3, 20))
    assert scaled_residuals(cp).tolist() == [[-5, 7, -2]]
    assert cp.counts.tolist() == [[5, 9, 6]]


def test_checkpoint_m1_is_identically_zero(tally_of):
    assert scaled_residuals(series_of(tally_of(1, 500))).tolist() == [[0]]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_scaled_residuals_sum_to_zero(m, tally_of):
    assert int(scaled_residuals(series_of(tally_of(m, 4096))).sum()) == 0


def test_checkpoint_requires_anchored_nonempty_tally():
    with pytest.raises(ValueError):
        scaled_residuals(series_of(new_tally(3)))  # empty


def test_checkpoint_overflow_guard():
    huge = CheckpointSeries(m=4, checkpoints=np.array([2**61]), counts=np.zeros((1, 4), np.int64))
    with pytest.raises(OverflowError):
        scaled_residuals(huge)


def test_schedule_examples():
    assert checkpoint_schedule(100, ratio=10.0) == [10, 100]
    assert checkpoint_schedule(20) == [10, 18, 20]
    # default ratio = four checkpoints per decade, dedup keeps them sorted
    schedule = checkpoint_schedule(10_000)
    assert schedule[0] == 10 and schedule[-1] == 10_000
    assert schedule == sorted(set(schedule))
    assert len(schedule) == 13  # 10 * 10^(t/4) for t = 0..12


def test_schedule_includes_offgrid_xmax():
    schedule = checkpoint_schedule(12345)
    assert 12345 in schedule
    assert schedule[-1] == 12345


def test_schedule_validates():
    with pytest.raises(ValueError):
        checkpoint_schedule(9)
    with pytest.raises(ValueError):
        checkpoint_schedule(1000, ratio=1.0)
    with pytest.raises(ValueError, match="ratio must be finite"):
        checkpoint_schedule(1000, ratio=float("inf"))


def test_schedule_refuses_ratio_too_close_to_one():
    # Twice the checkpoint limit between 10 and 100 (a schedule loop of
    # 200,000 steps) is refused before looping; half of it is built.
    with pytest.raises(ValueError, match="ratio 1.0000"):
        checkpoint_schedule(100, ratio=10 ** (1 / (2 * MAX_CHECKPOINTS)))
    assert checkpoint_schedule(100, ratio=10 ** (1 / (MAX_CHECKPOINTS // 2))) == list(
        range(10, 101)
    )


def test_schedule_ratio_near_float_max():
    # 10 * ratio overflows to inf; the schedule is just the two ends.
    assert checkpoint_schedule(100, ratio=1e308) == [10, 100]


def test_record_series_matches_fresh_tallies(tally_of):
    series = record_many([5], 10_000)[5]
    schedule = checkpoint_schedule(10_000)
    assert series.checkpoints.tolist() == schedule
    for i in (0, 7, -1):
        assert np.array_equal(series.counts[i], tally_of(5, schedule[i]).counts)


def test_record_series_segment_size_invisible():
    a = record_many([3], 5000, segment_size=64_000)[3]
    b = record_many([3], 5000, segment_size=1031)[3]  # prime-sized blocks
    assert a.checkpoints.tolist() == b.checkpoints.tolist()
    assert np.array_equal(a.counts, b.counts)


def test_record_many_single_pass_consistency():
    bundle = record_many([2, 3, 7], 3000)
    for m in (2, 3, 7):
        solo = record_many([m], 3000)[m]
        assert bundle[m].checkpoints.tolist() == solo.checkpoints.tolist()
        assert np.array_equal(bundle[m].counts, solo.counts)


@pytest.mark.parametrize("x_max", [10, 11, 100, 5000])
@pytest.mark.parametrize("segment_size", [1, 2, 9, 10, 11, 17, 1031])
def test_record_many_cuts_segments_at_checkpoints(segment_size, x_max):
    """Checkpoints on a segment's last integer, on its first, several in one
    segment and x_max inside a segment: each checkpoint's counts are those
    of a fresh one-block tally of 1..x."""
    moduli = [1, 2, 3, 12]
    series = record_many(moduli, x_max, segment_size=segment_size)
    table = primes_up_to(max(2, math.isqrt(x_max)))
    for m in moduli:
        xs = series[m].checkpoints.tolist()
        assert xs == checkpoint_schedule(x_max)
        for x, counts in zip(xs, series[m].counts):
            fresh = tally_segment(new_tally(m), omega_block(1, x + 1, table))
            assert counts.tolist() == fresh.counts.tolist()


def test_record_many_histograms_each_piece_once(monkeypatch):
    """Twelve moduli share one histogram per piece of the stream of the n
    coprime to 6: a piece ends at each distinct cut, the number p of such
    n <= x // d for a checkpoint x and d = 2^a * 3^b <= x, and at each
    block's end, and the pieces cover the n <= x_max coprime to 6 once, in
    order."""
    x_max, segment_size = 5000, 1031
    pieces, ends = [], []
    counts = errorterms.omega_counts

    def recording_counts(values, piece_ends):
        ends.extend(sum(map(len, pieces)) + np.asarray(piece_ends))
        pieces.append(values.copy())
        return counts(values, piece_ends)

    monkeypatch.setattr(errorterms, "omega_counts", recording_counts)
    record_many(range(1, 13), x_max, segment_size=segment_size)
    schedule = checkpoint_schedule(x_max)
    expected = {
        sieve.wheel_count(x // (2**a * 3**b))
        for x in schedule
        for a in range(x.bit_length())
        for b in range(x.bit_length())
        if 2**a * 3**b <= x
    }
    count = sieve.wheel_count(x_max)
    expected |= set(range(segment_size, count, segment_size)) | {count}
    assert sorted(ends) == sorted(expected)
    stream = np.concatenate([s.values for s in iter_segments(x_max, wheel=6)])
    assert np.concatenate(pieces).tolist() == stream.tolist()


def test_record_many_on_a_dense_schedule_matches_one_block():
    """At ratio 1.001 to 10^5 most checkpoints share their cuts x // d with
    others, and blocks of 1024 values hold many cuts each; each
    checkpoint's counts are the class counts of the first x values of one
    stride-1 block of 1..10^5, counted by a cumulative sum per class."""
    x_max, moduli = 10**5, range(1, 14)
    values = omega_block(1, x_max + 1, primes_up_to(math.isqrt(x_max))).values
    for segment_size in (sieve.DEFAULT_SEGMENT_SIZE, 1024):
        series = record_many(moduli, x_max, 1.001, segment_size=segment_size)
        for m in moduli:
            running = np.cumsum(values[:, None] % m == np.arange(m), axis=0)
            xs = series[m].checkpoints.tolist()
            assert xs == checkpoint_schedule(x_max, 1.001)
            for x, counts in zip(xs, series[m].counts):
                assert counts.tolist() == running[x - 1].tolist(), (m, x)


@pytest.mark.parametrize(
    "schedule",
    [
        [2**64 - 1 - 997 * k for k in range(40, -1, -1)],
        [10, 99, 2**40 + 1, 2**63 - 1, 2**63, 3**40, 2**64 - 2, 2**64 - 1],
        checkpoint_schedule(2**64 - 1, 10.0**6),
    ],
)
def test_lift_runs_near_2_to_64(schedule):
    """The runs of the lift for checkpoints up to 2^64 - 1, without a
    stream: for every d = 2^a * 3^b <= x the checkpoints that share
    p = #{n <= x // d coprime to 6}, in plain Python, sorted by their cut."""
    width = 64 + 28
    cuts, plus, minus = errorterms._lift_runs(schedule, width)
    assert (np.diff(cuts) >= 0).all()
    expected = []
    for a in range(64):
        for b in range(41):
            d = 2**a * 3**b
            rows = [(i, sieve.wheel_count(x // d)) for i, x in enumerate(schedule) if x >= d]
            for k, (i, p) in enumerate(rows):
                if k == 0 or p != rows[k - 1][1]:
                    end = next((j for j, q in rows[k:] if q != p), len(schedule))
                    expected.append((p, i * width + a + b, end * width + a + b))
    assert sorted(zip(cuts.tolist(), plus.tolist(), minus.tolist())) == sorted(expected)


def test_record_many_validates():
    with pytest.raises(ValueError):
        record_many([], 1000)
    with pytest.raises(ValueError):
        record_many([0], 1000)


def per_modulus_checkpoints(moduli, x_max, segment_size):
    """(x, counts) at every checkpoint, from one tally per modulus fed each
    piece by tally_segment and copied at each checkpoint: the reference
    for record_many's one histogram record."""
    schedule = checkpoint_schedule(x_max)
    tallies = {m: new_tally(m) for m in moduli}
    copies = {m: [] for m in moduli}
    next_cp = 0
    for segment in iter_segments(x_max, segment_size=segment_size):
        lo = segment.lo
        while lo < segment.hi:
            x = schedule[next_cp]
            hi = min(x + 1, segment.hi)
            values = segment.values[lo - segment.lo : hi - segment.lo]
            for tally in tallies.values():
                tally_segment(tally, OmegaSegment(lo, hi, values))
            if hi == x + 1:
                for m, tally in tallies.items():
                    copies[m].append((tally.x, tally.counts.tolist()))
                next_cp += 1
            lo = hi
    return copies


@pytest.mark.parametrize("segment_size", [sieve.DEFAULT_SEGMENT_SIZE, 100_003])
def test_record_many_matches_per_modulus_tallies(segment_size):
    moduli = range(1, 71)
    series = record_many(moduli, 10**6, segment_size=segment_size)
    reference = per_modulus_checkpoints(moduli, 10**6, segment_size)
    for m in moduli:
        got = list(zip(series[m].checkpoints.tolist(), series[m].counts.tolist()))
        assert got == reference[m]
        assert (series[m].m, series[m].checkpoints.dtype, series[m].counts.dtype) == (
            m, np.int64, np.int64
        )
        # Omega(n) < 64 below 2^64, so classes from 64 on stay empty.
        assert not series[m].counts[:, 64:].any()


def test_record_many_validates_before_streaming(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("the stream started")

    monkeypatch.setattr(errorterms, "iter_segments", no_stream)
    for moduli in ([], [0], [3, -1]):
        with pytest.raises(ValueError):
            record_many(moduli, 1000)
    with pytest.raises(AssertionError, match="the stream started"):
        record_many([3], 1000)


def series_with_residuals(m, xs, scaled):
    """The series of 1..x at each x of xs whose scaled residuals m*N_j - x
    are the rows of scaled; every x and residual is a multiple of m, so the
    counts are integers."""
    xs = np.asarray(xs, dtype=np.int64)
    scaled = np.asarray(scaled, dtype=np.int64)
    assert not (xs % m).any() and not (scaled % m).any()
    return CheckpointSeries(m, xs, (scaled + xs[:, None]) // m)


def synthetic_series(m, alpha):
    """Checkpoints whose class-0 scaled residual is exactly m * round(x^alpha)
    (class 1 balances it so the zero-sum invariant holds)."""
    # keep x divisible by m so counts are integral
    xs = [m * (x // m + 1) for x in checkpoint_schedule(10_000)]
    scaled = np.zeros((len(xs), m), dtype=np.int64)
    for i, xm in enumerate(xs):
        r = m * round(xm**alpha)
        scaled[i, 0] = r
        scaled[i, 1] = -r
    return series_with_residuals(m, xs, scaled)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_growth_exponent_recovers_powerlaw(alpha):
    fit = growth_exponent(synthetic_series(4, alpha), 0)
    assert fit.alpha_hat == pytest.approx(alpha, abs=0.02)
    assert fit.points_used == 13
    assert fit.residual_rms < 0.05


def test_growth_exponent_skips_zero_residuals():
    # Class 2 in the synthetic series is identically zero: no data to fit.
    with pytest.raises(InsufficientDataError):
        growth_exponent(synthetic_series(4, 0.5), 2)


def test_growth_exponent_validates_class():
    series = record_many([3], 1000)[3]
    with pytest.raises(ValueError):
        growth_exponent(series, 3)


def test_character_growth_exponent_synthetic():
    """m = 4 series built so that S_1(x) = 2 * round(x^0.7) exactly:
    scaled residuals (4r, 0, -4r, 0) give counts with c0 - c2 = 2r and
    c1 = c3, hence |S_1| = 2r."""
    m = 4
    # keep x divisible by m so counts are integral
    xs = [4 * (x // 4 + 1) for x in checkpoint_schedule(100_000)]
    scaled = []
    for x4 in xs:
        r = int(round(x4**0.7))
        scaled.append([4 * r, 0, -4 * r, 0])
    series = series_with_residuals(m, xs, scaled)
    fit = character_growth_exponent(series, 1)
    assert fit.alpha_hat == pytest.approx(0.7, abs=0.02)


def test_character_growth_exponent_real_data():
    # The m = 3 twist has a smooth dominant term, so the fitted slope is
    # stable; m = 2 (the alternating twist) oscillates too wildly at small
    # x for any tight window and is exercised elsewhere.
    series = record_many([3], 100_000)[3]
    fit = character_growth_exponent(series, 1)
    assert 0.5 < fit.alpha_hat < 1.0
    assert fit.residual_rms < 0.5
    assert fit.points_used >= 5


def test_character_growth_conjugate_pair_identical():
    # |S_k| = |S_{m-k}| pointwise, so the fits must agree to rounding.
    series = record_many([5], 20_000)[5]
    fit2 = character_growth_exponent(series, 2)
    fit3 = character_growth_exponent(series, 3)
    assert fit2.alpha_hat == pytest.approx(fit3.alpha_hat, abs=1e-9)


def test_character_fits_match_a_scalar_reference():
    """Every character fit for m = 3..12 to 10^5 equals, field for field, the
    fit of a per-checkpoint reference that takes each |S_k(x)| as Python's
    abs(complex) of the sum over the classes; np.abs of the same sums
    differs from that in the last bit on 331 of the 1,105 rows here."""
    for m, series in record_many(range(3, 13), 10**5).items():
        for k in range(1, m):
            weights = root_table(m)[(np.arange(m) * k) % m]
            points = [
                (x, y)
                for x, counts in zip(series.checkpoints.tolist(), series.counts)
                if (y := abs(complex(np.sum(weights * counts)))) != 0
            ]
            log_x = np.log(np.array([x for x, _ in points], dtype=np.float64))
            log_y = np.log(np.array([y for _, y in points], dtype=np.float64))
            slope, intercept = np.polyfit(log_x, log_y, 1)
            rms = np.sqrt(np.mean((log_y - (slope * log_x + intercept)) ** 2))
            expected = GrowthFit(k, float(slope), len(points), float(rms))
            assert character_growth_exponent(series, k) == expected, (m, k)


def test_character_growth_validates_k():
    series = record_many([3], 1000)[3]
    for k in (0, 3):
        with pytest.raises(ValueError):
            character_growth_exponent(series, k)


def test_insufficient_checkpoints():
    short = series_with_residuals(2, [10, 20, 30], [[2, -2]] * 3)
    with pytest.raises(InsufficientDataError):
        growth_exponent(short, 0)


def test_default_ratio_is_quarter_decade():
    assert DEFAULT_RATIO == pytest.approx(10**0.25, abs=1e-15)
