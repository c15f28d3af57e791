"""Checkpoint and growth-fit tests: exact residual snapshots, the zero-sum
identity, schedule arithmetic, checkpoints that cut segments, and synthetic
fits with known slopes."""

import math

import numpy as np
import pytest

from omegadist import sieve
from omegadist.errorterms import (
    DEFAULT_RATIO,
    MAX_CHECKPOINTS,
    CheckpointSeries,
    ErrorCheckpoint,
    InsufficientDataError,
    character_growth_exponent,
    checkpoint,
    checkpoint_schedule,
    growth_exponent,
    record_many,
)
from omegadist.residues import ResidueTally, new_tally, tally_segment
from omegadist.sieve import omega_block, omega_histogram, primes_up_to, segment_bounds


def test_checkpoint_known_example(tally_of):
    cp = checkpoint(tally_of(3, 20))
    assert cp.scaled_residuals.tolist() == [-5, 7, -2]
    assert cp.counts().tolist() == [5, 9, 6]


def test_checkpoint_m1_is_identically_zero(tally_of):
    cp = checkpoint(tally_of(1, 500))
    assert cp.scaled_residuals.tolist() == [0]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_scaled_residuals_sum_to_zero(m, tally_of):
    cp = checkpoint(tally_of(m, 4096))
    assert int(cp.scaled_residuals.sum()) == 0


def test_checkpoint_requires_anchored_nonempty_tally():
    with pytest.raises(ValueError):
        checkpoint(new_tally(3))  # empty
    delta = ResidueTally(m=3, x=30, counts=np.array([4, 3, 3]), lo=21)
    with pytest.raises(ValueError):
        checkpoint(delta)


def test_checkpoint_overflow_guard():
    huge = ResidueTally(m=4, x=2**61, counts=np.zeros(4, dtype=np.int64))
    with pytest.raises(OverflowError):
        checkpoint(huge)


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
    assert [cp.x for cp in series.checkpoints] == schedule
    for cp in (series.checkpoints[0], series.checkpoints[7], series.checkpoints[-1]):
        fresh = checkpoint(tally_of(5, cp.x))
        assert np.array_equal(cp.scaled_residuals, fresh.scaled_residuals)


def test_record_series_segment_size_invisible():
    a = record_many([3], 5000, segment_size=64_000)[3]
    b = record_many([3], 5000, segment_size=1031)[3]  # prime-sized blocks
    for cpa, cpb in zip(a.checkpoints, b.checkpoints):
        assert cpa.x == cpb.x
        assert np.array_equal(cpa.scaled_residuals, cpb.scaled_residuals)


def test_record_many_single_pass_consistency():
    bundle = record_many([2, 3, 7], 3000)
    for m in (2, 3, 7):
        solo = record_many([m], 3000)[m]
        assert [c.x for c in bundle[m].checkpoints] == [c.x for c in solo.checkpoints]
        for ca, cb in zip(bundle[m].checkpoints, solo.checkpoints):
            assert np.array_equal(ca.scaled_residuals, cb.scaled_residuals)


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
        xs = [cp.x for cp in series[m].checkpoints]
        assert xs == checkpoint_schedule(x_max)
        for cp in series[m].checkpoints:
            fresh = tally_segment(new_tally(m), omega_block(1, cp.x + 1, table))
            assert cp.counts().tolist() == fresh.counts.tolist()


def test_record_many_histograms_each_piece_once(monkeypatch):
    """Twelve moduli share one histogram per piece: a piece ends at each
    checkpoint and at each segment's end."""
    x_max, segment_size = 5000, 1031
    calls = []

    def counting_histogram(values):
        calls.append(len(values))
        return omega_histogram(values)

    monkeypatch.setattr(sieve, "omega_histogram", counting_histogram)
    record_many(range(1, 13), x_max, segment_size=segment_size)
    ends = {x + 1 for x in checkpoint_schedule(x_max)}
    ends |= {hi for _, hi in segment_bounds(x_max, segment_size)}
    assert len(calls) == len(ends)
    assert sum(calls) == x_max


def test_record_many_validates():
    with pytest.raises(ValueError):
        record_many([], 1000)
    with pytest.raises(ValueError):
        record_many([0], 1000)


def synthetic_series(m, alpha):
    """Checkpoints whose class-0 residual is exactly m * x^alpha (class 1
    balances it so the zero-sum invariant holds)."""
    series = CheckpointSeries(m=m)
    for x in checkpoint_schedule(10_000):
        r = int(round(m * x**alpha))
        scaled = np.zeros(m, dtype=np.int64)
        scaled[0] = r
        scaled[1] = -r
        series.checkpoints.append(
            ErrorCheckpoint(m=m, x=x, scaled_residuals=scaled)
        )
    return series


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
    series = CheckpointSeries(m=m)
    for x in checkpoint_schedule(100_000):
        x4 = 4 * (x // 4 + 1)  # keep x divisible by m so counts are integral
        r = int(round(x4**0.7))
        scaled = np.array([4 * r, 0, -4 * r, 0], dtype=np.int64)
        series.checkpoints.append(ErrorCheckpoint(m=m, x=x4, scaled_residuals=scaled))
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


def test_character_growth_validates_k():
    series = record_many([3], 1000)[3]
    for k in (0, 3):
        with pytest.raises(ValueError):
            character_growth_exponent(series, k)


def test_insufficient_checkpoints():
    short = CheckpointSeries(m=2)
    for x in (10, 20, 30):
        short.checkpoints.append(
            ErrorCheckpoint(m=2, x=x, scaled_residuals=np.array([2, -2]))
        )
    with pytest.raises(InsufficientDataError):
        growth_exponent(short, 0)


def test_default_ratio_is_quarter_decade():
    assert DEFAULT_RATIO == pytest.approx(10**0.25, abs=1e-15)
