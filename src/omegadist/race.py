"""Races between residue classes: sign changes and lead statistics of
Delta(x) = N_j(x) - N_j'(x).

Delta moves by +1, -1 or 0 at each integer.  Zeros are transparent for
sign-change detection: an event is recorded at the first x where Delta takes
a strict sign opposite to the last strict sign seen.  The initial run up to
the first nonzero value sets the starting sign and is not an event.

The scan has two levels.  Each sieve segment is cut into sub-blocks of
SUB_BLOCK integers (the last one shorter when the segment length is not a
multiple).  One bincount per COUNT_SLICE values, 64 sub-blocks, counts each
Omega value in every sub-block, and the 64 values fold onto the m classes,
for all pairs at once.  For one pair, let D be Delta just before a
sub-block and c, c' the counts of j and j' in it.  Inside the sub-block
Delta stays within [D - c', D + c], so where D > c' or D < -c it never
reaches zero: every n in the sub-block has the sign of D, there is no event
and no tie, and the last strict sign stays sign(D), which Delta already had
just before the sub-block.  Such a sub-block only adds its length to one
lead.  The test is exact, not a heuristic; the other sub-blocks, in
contiguous runs, go through the per-n scan, which alone reads each value's
class.  Once |Delta| outgrows a sub-block, which happens early for m > 2,
almost every sub-block is skipped and the cost per pair falls from O(x) to
O(x / SUB_BLOCK).  Each side of the test needs only one class count, which
matters at m = 2: there c + c' is the whole sub-block, while |Delta| stays
near a sub-block's length below 10^7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .residues import fold_classes
from .sieve import DEFAULT_SEGMENT_SIZE, iter_segments

POSITIVE_TO_NEGATIVE = "positive-to-negative"
NEGATIVE_TO_POSITIVE = "negative-to-positive"

# Integers per sub-block of the skip test.  Short enough that |Delta| soon
# exceeds a sub-block's class counts, long enough that the per-sub-block
# arrays stay a small fraction of a segment.
SUB_BLOCK = 1024

# Values per bincount of the sub-block counts, a multiple of SUB_BLOCK: its
# intp keys and offsets (512 KB each) and 64 * 64 bins fit in L2, whatever
# the segment size.
COUNT_SLICE = 1 << 16

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
    skip = (starts > cjp) | (starts < -cj)
    race.lead_pos += int(lengths[skip & (starts > 0)].sum())
    race.lead_neg += int(lengths[skip & (starts < 0)].sum())
    # Maximal runs [a, b) of sub-blocks that need the per-n scan.
    edges = np.flatnonzero(np.diff(skip, prepend=True, append=True))
    # A skipped sub-block keeps the sign Delta had just before it, so
    # last_sign, set by the run that precedes it, needs no update.
    for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
        race.final_delta = int(starts[a])
        run = values[a * SUB_BLOCK : b * SUB_BLOCK]
        _feed(race, run % race.m, lo + a * SUB_BLOCK)
    race.final_delta = int(ends[-1])


def _sub_block_counts(values: np.ndarray, m: int, offsets: np.ndarray) -> np.ndarray:
    """counts[b, j] = #{i in sub-block b : values[i] = j (mod m)}, as int64.

    Slices of at most len(offsets) values, a multiple of SUB_BLOCK, are
    counted by one bincount each of values + offsets, where offsets[i] =
    64 * (i // SUB_BLOCK) puts the 64 Omega values of each sub-block in
    their own row; fold_classes folds the 64 columns onto the m classes.
    """
    pieces = []
    for a in range(0, len(values), len(offsets)):
        piece = values[a : a + len(offsets)]
        blocks = -(-len(piece) // SUB_BLOCK)
        hist = np.bincount(piece + offsets[: len(piece)], minlength=blocks * 64)
        pieces.append(fold_classes(hist.reshape(blocks, 64), m))
    return np.concatenate(pieces)


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
    offsets = np.arange(COUNT_SLICE, dtype=np.intp) // SUB_BLOCK * 64
    for segment in iter_segments(x_max, segment_size=segment_size, workers=workers):
        if segment.wheel != 1:
            raise ValueError(f"a race needs every n, got a wheel-{segment.wheel} segment")
        values = segment.values
        counts = _sub_block_counts(values, m, offsets)
        # Every n falls in exactly one class.
        lengths = counts.sum(axis=1)
        for race in races:
            _feed_blocks(race, values, segment.lo, counts, lengths)
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
