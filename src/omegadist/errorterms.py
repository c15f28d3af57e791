"""Exact error terms of the residue-class counts at geometric checkpoints,
plus least-squares growth exponents.

The tracked quantity is the scaled residual m*N_j(x) - x = m*R_j(x), an
exact integer (no division by m, no floating subtraction), folded from
the Omega histogram of 1..x kept, once for all moduli, at geometric
checkpoints.  Only the n coprime to 6 are sieved: Omega is completely
additive, so Omega(2^a * 3^b * k) = a + b + Omega(k), and the histogram of
1..x is the sum over d = 2^a * 3^b <= x of the histogram of the k <= x // d
coprime to 6 shifted up a + b bins.  Growth exponents come from fitting
log|R| against log x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .residues import root_table
from .sieve import DEFAULT_SEGMENT_SIZE, fold_classes, iter_segments, omega_counts, wheel_count

#: Four checkpoints per decade.
DEFAULT_RATIO = 10.0 ** 0.25

#: Fewest nonzero checkpoints a growth fit will accept.
MIN_FIT_POINTS = 5

#: Most checkpoints a schedule may hold.  A ratio closer to 1 than this
#: allows is refused before the loop, which would otherwise run for hours.
MAX_CHECKPOINTS = 100_000

# record_many adds at most this many runs at once, which bounds its
# scratch arrays to a few MB.
_CHUNK_RUNS = 1 << 14

# _lift_runs holds the runs of at most about this many (d, checkpoint)
# pairs at once.
_CHUNK_CELLS = 1 << 18


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


@dataclass(frozen=True)
class CheckpointSeries:
    """One modulus's class counts of 1..x at each checkpoint x: checkpoints
    is the int64 array of the x, ascending, and counts[i, j] the number of
    n <= checkpoints[i] with Omega(n) = j (mod m), an int64[len, m] array."""

    m: int
    checkpoints: np.ndarray
    counts: np.ndarray


def scaled_residuals(series: CheckpointSeries) -> np.ndarray:
    """m*N_j(x) - x at every checkpoint x (rows) and class j (columns), as
    exact int64; each row sums to zero (every n <= x lands in exactly one
    class)."""
    xs, m = series.checkpoints, series.m
    if xs.min(initial=1) < 1:
        raise ValueError(f"checkpoints must be >= 1, got x = {xs.min()}")
    if xs.max(initial=0) > (1 << 62) // m:
        raise OverflowError(f"x = {xs.max()} too large to form exact m*N - x at m = {m}")
    return m * series.counts - xs[:, None]


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

    The pass sieves the n coprime to 6 only, segment_size of them a block.
    The record of x is the 64-bin Omega histogram of 1..x (Omega(n) < 64
    below 2**64), the sum over d = 2^a * 3^b <= x of the histogram of the
    n <= x // d coprime to 6 shifted up a + b bins.  For each d the
    checkpoints fall into runs that share that histogram; at the cut where
    the stream has read a run's n, the running histogram is added to the
    difference row of the run's first checkpoint and taken from the row
    past its last, in bulk for many runs at once.  One cumulative sum over
    the rows gives every record, and one fold_classes a modulus's counts at
    every checkpoint.
    """
    moduli = list(dict.fromkeys(moduli))
    if not moduli or min(moduli) < 1:
        raise ValueError(f"need one or more moduli, each >= 1, got {moduli}")
    schedule = checkpoint_schedule(x_max, ratio)
    # The n coprime to 6 are products of primes >= 5, so every one up to
    # x_max has Omega(n) < bins, the least with 5**bins > x_max.
    bins = 1
    while 5**bins <= x_max:
        bins += 1
    # A run's bins land at columns a + b to a + b + bins - 1 of its row,
    # and 2^(a + b) <= x_max, so none reaches the next row; the last row
    # takes the subtractions past the last checkpoint.
    width = max(64, x_max.bit_length() - 1 + bins)
    segments = iter_segments(x_max, segment_size=segment_size, workers=workers, wheel=6)
    # The first block checks x_max before the runs are built, and a pool
    # sieves on while they are.
    segment = next(segments)
    cuts, plus, minus = _lift_runs(schedule, width)
    rows = np.zeros((len(schedule) + 1, width), dtype=np.int64)
    cells = rows.reshape(-1)
    running = np.zeros(bins, dtype=np.int64)
    first = start = 0  # the next run; the stream position of the block
    while segment is not None:
        values = segment.values
        stop = int(np.searchsorted(cuts, start + len(values), side="right"))
        done = 0  # the block's values in running
        for a in range(first, stop, _CHUNK_RUNS):
            b = min(a + _CHUNK_RUNS, stop)
            ends, which = np.unique(cuts[a:b] - start, return_inverse=True)
            pieces = omega_counts(values[done : ends[-1]], ends - done)[:, :bins]
            hists = running + np.cumsum(pieces, axis=0)
            running, done = hists[-1].copy(), ends[-1]
            _add_runs(cells, hists[which], plus[a:b], minus[a:b])
        if done < len(values):
            running = running + omega_counts(values[done:], [len(values) - done])[0, :bins]
        first, start = stop, start + len(values)
        segment = next(segments, None)
    del cuts, plus, minus  # freed before the checkpoints are built
    np.cumsum(rows, axis=0, out=rows)
    records, xs = rows[:-1, :64], np.array(schedule, dtype=np.int64)
    return {m: CheckpointSeries(m, xs, fold_classes(records, m)) for m in moduli}


def _lift_runs(schedule: list[int], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs of record_many's lift, sorted by their cut.

    For each d = 2^a * 3^b up to the last checkpoint, a run is a maximal
    range of checkpoints x >= d that share p >= 1, the number of n <= x // d
    coprime to 6: the cut, where the stream has read those p values.  For
    each run, ascending in the cut, come the cut, the flat cell of a
    (len(schedule) + 1)-row table of width columns that starts the run's
    first row at column a + b, and that of the row past its last.  The d
    are taken a few at a time, each a row of p against every checkpoint.
    """
    xs = np.array(schedule, dtype=np.uint64)
    bits = schedule[-1].bit_length()
    smooth = [
        (2**a * 3**b, a + b) for a in range(bits) for b in range(bits) if 2**a * 3**b <= schedule[-1]
    ]
    step = max(1, _CHUNK_CELLS // len(xs))
    cuts, plus, minus = [], [], []
    for i in range(0, len(smooth), step):
        d, shift = (np.array(column, dtype=np.uint64) for column in zip(*smooth[i : i + step]))
        # p[k, j] for d[k] and xs[j], with a column of p(0) = 0 in front:
        # a run starts where p changes, and the first x >= d starts one.
        p = np.zeros((len(d), len(xs) + 1), dtype=np.uint64)
        p[:, 1:] = wheel_count(xs // d[:, None])
        starts = np.flatnonzero(p[:, 1:] != p[:, :-1])
        row, column = np.divmod(starts, len(xs))
        # A run ends where the next one of its d starts, or at the end.
        end = np.append(column[1:], len(xs))
        end[:-1][row[1:] != row[:-1]] = len(xs)
        base = shift[row].astype(np.int64)
        cuts.append(p.reshape(-1)[starts + row + 1].astype(np.int64))
        plus.append(column * width + base)
        minus.append(end * width + base)
    cuts, plus, minus = (np.concatenate(parts) for parts in (cuts, plus, minus))
    order = np.argsort(cuts, kind="stable")
    return cuts[order], plus[order], minus[order]


def _add_runs(cells: np.ndarray, hists: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> None:
    """Add row i of hists to the cells from plus[i] on and take it from the
    cells from minus[i] on, in one np.add.at, which adds once for every run
    where several runs share a cell; flat, for numpy's 1-D ufunc.at path."""
    at = np.concatenate((plus, minus))[:, None] + np.arange(hists.shape[1])
    np.add.at(cells, at.ravel(), np.concatenate((hists, -hists)).ravel())


def _fit_loglog(series: CheckpointSeries, magnitudes: np.ndarray, index: int) -> GrowthFit:
    """Fit log magnitude against log x over the checkpoints where the
    magnitude (one per checkpoint) is nonzero."""
    nonzero = np.flatnonzero(magnitudes)
    if len(nonzero) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_POINTS} nonzero checkpoints, have {len(nonzero)}"
        )
    log_x = np.log(series.checkpoints[nonzero].astype(np.float64))
    log_y = np.log(magnitudes[nonzero])
    slope, intercept = np.polyfit(log_x, log_y, 1)
    residual = log_y - (slope * log_x + intercept)
    return GrowthFit(index, float(slope), len(nonzero), float(np.sqrt(np.mean(residual**2))))


def growth_exponent(series: CheckpointSeries, j: int) -> GrowthFit:
    """Fit log|R_j(x)| against log x over the checkpoints where R_j != 0,
    with R_j(x) = N_j(x) - x/m recovered exactly as scaled_residuals / m."""
    if not 0 <= j < series.m:
        raise ValueError(f"need 0 <= j < m, got j={j}, m={series.m}")
    magnitudes = np.abs(scaled_residuals(series)[:, j]) / series.m
    return _fit_loglog(series, magnitudes, j)


def character_growth_exponent(series: CheckpointSeries, k: int) -> GrowthFit:
    """Same fit for |S_k(x)|, rebuilt from the checkpointed counts and taken
    by np.hypot, as abs(complex) takes it; np.abs can differ in the last bit."""
    m = series.m
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    weights = root_table(m)[(np.arange(m) * k) % m]
    sums = np.sum(weights * series.counts, axis=1)
    return _fit_loglog(series, np.hypot(sums.real, sums.imag), k)
