"""Races between residue classes: sign changes and lead statistics of
Delta(x) = N_j(x) - N_j'(x).

Delta moves by +1, -1 or 0 at each integer.  Zeros are transparent for
sign-change detection: an event is recorded at the first x where Delta takes
a strict sign opposite to the last strict sign seen.  The initial run up to
the first nonzero value sets the starting sign and is not an event.

The scan has two levels.  Each sieve segment is cut into sub-blocks of
SUB_BLOCK integers (the last one shorter when the segment length is not a
multiple).  _class_counts counts every class in every sub-block, for all
pairs at once.  For one pair, let D be Delta just before a sub-block and
c, c' the counts of j and j' in it.  Inside the sub-block Delta stays
within [D - c', D + c], so where D > c' or D < -c, or c = c' = 0, it
keeps the sign of D (or stays 0): there is no event, the last strict sign
stays, and the sub-block only adds its length to one lead or to the ties.
The test is exact, not a heuristic; the other sub-blocks, in contiguous
runs, go through the per-n scan, which alone reads each value's class.
Once |Delta| outgrows a sub-block, which happens early for m > 2, almost
every sub-block is skipped and the cost per pair falls from O(x) to
O(x / SUB_BLOCK).  Each side of the test needs only one class count,
which matters at m = 2: there c + c' is the whole sub-block, while
|Delta| stays near a sub-block's length below 10^7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, iter_segments, omega_max

POSITIVE_TO_NEGATIVE = "positive-to-negative"
NEGATIVE_TO_POSITIVE = "negative-to-positive"

# Integers per sub-block of the skip test.  Short enough that |Delta| soon
# exceeds a sub-block's class counts, long enough that the per-sub-block
# arrays stay a small fraction of a segment.
SUB_BLOCK = 1024

# Values per _class_counts slice, a multiple of SUB_BLOCK: 256 KB per buffer.
_LANE_SLICE = 1 << 18

# Omega(n) < 64 below 2**64, so every class from 64 on is empty, while the
# all-pairs list grows as m^2.
MAX_MODULUS = 64


@dataclass(frozen=True)
class RaceEvent:
    """One strict sign change, recorded at the x where the new sign appears."""

    x: int
    direction: str


@dataclass
class RaceSummary:
    """Scan result for one ordered pair (j, jprime), and the running state
    of the scan while it is fed: final_delta is then the current Delta."""

    m: int
    j: int
    jprime: int
    x_max: int
    events: list[RaceEvent] = field(default_factory=list)
    lead_pos: int = 0   # integers n <= x_max with Delta(n) > 0
    lead_neg: int = 0   # ... with Delta(n) < 0
    lead_tie: int = 0   # ... with Delta(n) == 0
    final_delta: int = 0
    last_sign: int = 0  # sign of the last nonzero Delta, 0 before the first


def _residues(values: np.ndarray, m: int) -> np.ndarray:
    """values mod m as uint8, by numpy's SIMD floor_divide; % has no SIMD loop."""
    return values - m * (values // m)


def _class_counts(values: np.ndarray, m: int) -> np.ndarray:
    """counts[k, j] = #{i in sub-block k : values[i] = j (mod m)}, int64,
    the last sub-block short when SUB_BLOCK does not divide len(values).
    Per slice and class j up to the largest value, a compare gives a byte
    of 0 or 1 per value, zero-padded to whole sub-blocks, whose bytes,
    added as uint64 words, sum in 8 byte lanes of at most 128 ones, which
    never carry, whatever the byte order.  Raises as omega_max does."""
    live = min(m, omega_max(values) + 1)
    k = -(-len(values) // SUB_BLOCK)
    counts = np.zeros((k, m), dtype=np.int64)
    lanes = np.empty((live, k), dtype=np.uint64)
    flags = np.zeros(min(k * SUB_BLOCK, _LANE_SLICE), dtype=bool)
    for a in range(0, len(values), _LANE_SLICE):
        residues = _residues(values[a : a + _LANE_SLICE], m)
        whole = -(-len(residues) // SUB_BLOCK) * SUB_BLOCK
        # np.equal fills len(residues) bytes; the padding held the last slice's.
        flags[len(residues) : whole] = False
        words = flags[:whole].view(np.uint64).reshape(-1, SUB_BLOCK // 8)
        for j in range(live):
            np.equal(residues, j, out=flags[: len(residues)])
            np.add.reduce(words, axis=1, out=lanes[j, a // SUB_BLOCK :][: len(words)])
    counts[:, :live] = lanes.view(np.uint8).reshape(live, k, 8).sum(axis=2).T
    return counts


def _feed(race: RaceSummary, residues: np.ndarray, lo: int) -> None:
    """Per-n scan of residues, the classes of lo, lo + 1, ..."""
    steps = (residues == race.j).astype(np.int64) - (residues == race.jprime)
    path = race.final_delta + np.cumsum(steps)
    race.lead_pos += int(np.count_nonzero(path > 0))
    race.lead_neg += int(np.count_nonzero(path < 0))
    race.lead_tie += int(np.count_nonzero(path == 0))
    nonzero = np.flatnonzero(path)
    if len(nonzero):
        signs = np.sign(path[nonzero])
        previous = np.empty(len(signs), dtype=np.int64)
        # An initial zero stretch has no sign to flip from.
        previous[0] = race.last_sign if race.last_sign != 0 else signs[0]
        previous[1:] = signs[:-1]
        for i in np.flatnonzero(signs != previous):
            direction = NEGATIVE_TO_POSITIVE if signs[i] > 0 else POSITIVE_TO_NEGATIVE
            race.events.append(RaceEvent(x=lo + int(nonzero[i]), direction=direction))
        race.last_sign = int(signs[-1])
    race.final_delta = int(path[-1])


def _feed_blocks(
    race: RaceSummary,
    values: np.ndarray,
    lo: int,
    counts: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """Scan one segment of Omega values given its per-sub-block class
    counts: skip the sub-blocks where Delta cannot reach zero, feed the
    rest in runs, reading a run's classes as its values mod m."""
    cj, cjp = counts[:, race.j], counts[:, race.jprime]
    ends = race.final_delta + np.cumsum(cj - cjp)
    starts = ends - (cj - cjp)
    skip = (starts > cjp) | (starts < -cj) | ((cj == 0) & (cjp == 0))
    race.lead_pos += int(lengths[skip & (starts > 0)].sum())
    race.lead_neg += int(lengths[skip & (starts < 0)].sum())
    race.lead_tie += int(lengths[skip & (starts == 0)].sum())
    # Maximal runs [a, b) of sub-blocks that need the per-n scan.
    edges = np.flatnonzero(np.diff(skip, prepend=True, append=True))
    # A skipped sub-block keeps the sign Delta had just before it, so
    # last_sign, set by the run that precedes it, needs no update.
    for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
        race.final_delta = int(starts[a])
        run = values[a * SUB_BLOCK : b * SUB_BLOCK]
        _feed(race, _residues(run, race.m), lo + a * SUB_BLOCK)
    race.final_delta = int(ends[-1])


def _scan(
    m: int,
    pairs: Iterable[tuple[int, int]],
    x_max: int,
    *,
    segment_size: int,
    workers: int,
) -> list[RaceSummary]:
    if m < 2:
        raise ValueError(f"need m >= 2 to race two classes, got {m}")
    if m > MAX_MODULUS:
        raise ValueError(f"race modulus must be at most {MAX_MODULUS}, got {m}")
    races = [RaceSummary(m, j, jprime, x_max) for j, jprime in pairs]
    for segment in iter_segments(x_max, segment_size=segment_size, workers=workers):
        counts = _class_counts(segment.values, m)
        # Every n falls in exactly one class.
        lengths = counts.sum(axis=1)
        for race in races:
            _feed_blocks(race, segment.values, segment.lo, counts, lengths)
    return races


def race_scan(
    m: int,
    j: int,
    jprime: int,
    x_max: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> RaceSummary:
    """Scan Delta(x) = N_j(x) - N_j'(x) for x <= x_max."""
    if not (0 <= j < m and 0 <= jprime < m):
        raise ValueError(f"classes out of range: j={j}, jprime={jprime}, m={m}")
    if j == jprime:
        raise ValueError(f"classes must differ, got j = jprime = {j}")
    return _scan(m, [(j, jprime)], x_max, segment_size=segment_size, workers=workers)[0]


def all_pairs(
    m: int,
    x_max: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> list[RaceSummary]:
    """Race every unordered pair j < jprime in one sieve pass."""
    # A generator, so no pair is made before _scan has bounded m.
    pairs = ((j, jprime) for j in range(m) for jprime in range(j + 1, m))
    return _scan(m, pairs, x_max, segment_size=segment_size, workers=workers)
