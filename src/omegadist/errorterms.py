"""Exact error terms of the residue-class counts at geometric checkpoints,
plus least-squares growth exponents.

The tracked quantity is the scaled residual m*N_j(x) - x = m*R_j(x), an
exact integer (no division by m, no floating subtraction), folded from
the Omega histogram of 1..x kept, once for all moduli, at geometric
checkpoints.  Only the odd n are sieved: Omega is completely additive, so
Omega(2^e * k) = e + Omega(k), and the histogram of 1..x is the sum over
e of the histogram of the odd k <= x >> e shifted up e bins.  Growth
exponents come from fitting log|R| against log x.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .residues import ResidueTally, fold_classes, root_table
from .sieve import DEFAULT_SEGMENT_SIZE, iter_segments, omega_histogram

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
    """One modulus's tally of 1..x at each checkpoint x, ascending in x."""

    m: int
    checkpoints: list[ResidueTally] = field(default_factory=list)


def scaled_residuals(tally: ResidueTally) -> np.ndarray:
    """m*N_j(x) - x for every class j of a 1-anchored tally; exact integers,
    summing to zero (every n <= x lands in exactly one class)."""
    if tally.lo != 1:
        raise ValueError("checkpoints are defined for tallies anchored at 1")
    if tally.x < 1:
        raise ValueError(f"tally is empty (x = {tally.x})")
    if tally.x > (1 << 62) // tally.m:
        raise OverflowError(
            f"x = {tally.x} too large to form exact m*N - x at m = {tally.m}"
        )
    return tally.m * tally.counts - tally.x


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

    The pass sieves the odd n only, segment_size of them a block, cut at
    every y = x >> e >= 1 of every checkpoint x; each piece's histogram is
    added once to the running histogram of the odd n so far, which, shifted
    up e bins, is added at y to the record of x, the 64-bin Omega histogram
    of 1..x (Omega(n) < 64 below 2**64).  One fold_classes gives a
    modulus's counts at every checkpoint.
    """
    moduli = list(dict.fromkeys(moduli))
    if not moduli or min(moduli) < 1:
        raise ValueError(f"need one or more moduli, each >= 1, got {moduli}")
    schedule = checkpoint_schedule(x_max, ratio)
    records = np.zeros((len(schedule), 64), dtype=np.int64)
    running = np.zeros(64, dtype=np.int64)
    # Every (y, a, b, e) in ascending y; x_max is the last y, so each lies
    # in a block of the stream.
    cuts = heapq.merge(*(_runs(schedule, e) for e in range(x_max.bit_length())))
    cut = next(cuts)
    for segment in iter_segments(x_max, segment_size=segment_size, workers=workers, stride=2):
        done = 0
        while cut is not None and cut[0] < segment.hi:
            y, a, b, e = cut
            end = (y - segment.lo) // 2 + 1  # the odd n <= y in the block
            if end > done:
                running += omega_histogram(segment.values[done:end])
                done = end
            records[a:b, e:] += running[: 64 - e]
            cut = next(cuts, None)
        if done < len(segment.values):
            running += omega_histogram(segment.values[done:])
    series = {}
    for m in moduli:
        counts = fold_classes(records, m)
        series[m] = CheckpointSeries(m, [ResidueTally(m, x, c) for x, c in zip(schedule, counts)])
    return series


def _runs(schedule: list[int], e: int) -> Iterator[tuple[int, int, int, int]]:
    """(y, a, b, e) for each maximal run schedule[a:b] of the ascending
    checkpoints x that share y = x >> e >= 1, in ascending y."""
    a = bisect_left(schedule, 1 << e)
    while a < len(schedule):
        y = schedule[a] >> e
        b = bisect_left(schedule, (y + 1) << e, a)
        yield y, a, b, e
        a = b


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

    R_j(x) = N_j(x) - x/m is recovered exactly as scaled_residuals / m.
    """
    if not 0 <= j < series.m:
        raise ValueError(f"need 0 <= j < m, got j={j}, m={series.m}")
    magnitudes = [abs(int(scaled_residuals(cp)[j])) / series.m for cp in series.checkpoints]
    return _fit_loglog(series, magnitudes, j)


def character_growth_exponent(series: CheckpointSeries, k: int) -> GrowthFit:
    """Same fit for |S_k(x)|, rebuilt from the checkpointed counts."""
    m = series.m
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    weights = root_table(m)[(np.arange(m) * k) % m]
    magnitudes = [abs(complex(np.sum(weights * cp.counts))) for cp in series.checkpoints]
    return _fit_loglog(series, magnitudes, k)
