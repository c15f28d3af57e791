"""Exact error terms of the residue-class counts at geometric checkpoints,
plus least-squares growth exponents.

The tracked quantity is the scaled residual m*N_j(x) - x = m*R_j(x), an
exact integer (no division by m, no floating subtraction), recorded at a
geometric schedule of checkpoints.  Growth exponents come from fitting
log|R| against log x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .residues import ResidueTally, new_tally, root_table, tally_segment
from .sieve import DEFAULT_SEGMENT_SIZE, OmegaSegment, iter_segments

#: Four checkpoints per decade.
DEFAULT_RATIO = 10.0 ** 0.25

#: Fewest nonzero checkpoints a growth fit will accept.
MIN_FIT_POINTS = 5

#: Most checkpoints a schedule may hold.  A ratio closer to 1 than this
#: allows is refused before the loop, which would otherwise run for hours.
MAX_CHECKPOINTS = 100_000


class InsufficientDataError(ValueError):
    """Too few nonzero checkpoints to fit a growth exponent."""


@dataclass(frozen=True)
class ErrorCheckpoint:
    """scaled_residuals[j] = m*N_j(x) - x; exact integers, summing to zero
    (every n <= x lands in exactly one class)."""

    m: int
    x: int
    scaled_residuals: np.ndarray

    def counts(self) -> np.ndarray:
        """The underlying class counts, reconstructed exactly."""
        return (self.scaled_residuals + self.x) // self.m


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log|error| vs log x.

    index is the class j for count-error fits and the character k for
    character-sum fits.
    """

    index: int
    alpha_hat: float
    points_used: int
    residual_rms: float


@dataclass
class CheckpointSeries:
    """All checkpoints for one modulus, ascending in x."""

    m: int
    checkpoints: list[ErrorCheckpoint] = field(default_factory=list)


def checkpoint(tally: ResidueTally) -> ErrorCheckpoint:
    """Snapshot the scaled residuals of a 1-anchored tally."""
    if tally.lo != 1:
        raise ValueError("checkpoints are defined for tallies anchored at 1")
    if tally.x < 1:
        raise ValueError(f"tally is empty (x = {tally.x})")
    if tally.x > (1 << 62) // tally.m:
        raise OverflowError(
            f"x = {tally.x} too large to form exact m*N - x at m = {tally.m}"
        )
    scaled = tally.m * tally.counts - tally.x
    return ErrorCheckpoint(m=tally.m, x=tally.x, scaled_residuals=scaled)


def checkpoint_schedule(x_max: int, ratio: float = DEFAULT_RATIO) -> list[int]:
    """Geometric positions round(10 * ratio^t) up to x_max, deduplicated,
    with x_max itself always included."""
    if x_max < 10:
        raise ValueError(f"x_max must be >= 10, got {x_max}")
    if not ratio > 1.0:
        raise ValueError(f"ratio must be > 1, got {ratio}")
    if math.isinf(ratio):
        raise ValueError(f"ratio must be finite, got {ratio}")
    count = math.floor(math.log(x_max / 10) / math.log(ratio)) + 1
    if count > MAX_CHECKPOINTS:
        raise ValueError(
            f"ratio {ratio} gives {count} checkpoints up to {x_max}, "
            f"more than {MAX_CHECKPOINTS}"
        )
    positions = {x_max}
    t = 0
    while True:
        # Compared before rounding: a ratio near the float maximum makes
        # 10 * ratio infinite, which round() cannot convert.
        x = 10.0 * ratio**t
        if x > x_max:
            break
        positions.add(round(x))
        t += 1
    return sorted(positions)


def record_many(
    moduli: Iterable[int],
    x_max: int,
    ratio: float = DEFAULT_RATIO,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> dict[int, CheckpointSeries]:
    """Record checkpoint series for several moduli in one sieve pass.

    Each modulus keeps one ResidueTally, fed by tally_segment.  A segment
    with checkpoints inside it is cut at them into pieces that end on a
    checkpoint; a checkpoint is taken of every tally at the end of its
    piece.  Each piece is histogrammed once for all the moduli, so an extra
    modulus costs ~64 adds per piece, not another pass over the values.
    """
    tallies = {m: new_tally(m) for m in dict.fromkeys(moduli)}
    if not tallies:
        raise ValueError("need at least one modulus")
    schedule = checkpoint_schedule(x_max, ratio)
    series = {m: CheckpointSeries(m=m) for m in tallies}

    # x_max is the last checkpoint, so one is always due at or after lo.
    next_cp = 0
    for segment in iter_segments(x_max, segment_size=segment_size, workers=workers):
        base = lo = segment.lo
        while lo < segment.hi:
            x = schedule[next_cp]
            hi = min(x + 1, segment.hi)
            piece = segment
            if (lo, hi) != (segment.lo, segment.hi):
                piece = OmegaSegment(lo, hi, segment.values[lo - base : hi - base])
            for tally in tallies.values():
                tally_segment(tally, piece)
            if hi == x + 1:
                for m, tally in tallies.items():
                    series[m].checkpoints.append(checkpoint(tally))
                next_cp += 1
            lo = hi
    return series


def _fit_loglog(
    series: CheckpointSeries, magnitudes: list[float], index: int
) -> GrowthFit:
    """Fit log magnitude against log x over the checkpoints where the
    magnitude (one per checkpoint) is nonzero."""
    points = [(cp.x, y) for cp, y in zip(series.checkpoints, magnitudes) if y != 0]
    if len(points) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_POINTS} nonzero checkpoints, have {len(points)}"
        )
    xs, ys = zip(*points)
    log_x = np.log(np.asarray(xs, dtype=np.float64))
    log_y = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(log_x, log_y, 1)
    residual = log_y - (slope * log_x + intercept)
    return GrowthFit(
        index=index,
        alpha_hat=float(slope),
        points_used=len(points),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def growth_exponent(series: CheckpointSeries, j: int) -> GrowthFit:
    """Fit log|R_j(x)| against log x over checkpoints where R_j != 0.

    R_j(x) = N_j(x) - x/m is recovered exactly as scaled_residual / m.
    """
    if not 0 <= j < series.m:
        raise ValueError(f"need 0 <= j < m, got j={j}, m={series.m}")
    magnitudes = [abs(int(cp.scaled_residuals[j])) / series.m for cp in series.checkpoints]
    return _fit_loglog(series, magnitudes, j)


def character_growth_exponent(series: CheckpointSeries, k: int) -> GrowthFit:
    """Same fit for |S_k(x)|, rebuilt from the checkpointed counts."""
    m = series.m
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    weights = root_table(m)[(np.arange(m) * k) % m]
    magnitudes = [abs(complex(np.sum(weights * cp.counts()))) for cp in series.checkpoints]
    return _fit_loglog(series, magnitudes, k)
