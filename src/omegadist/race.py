"""Races between residue classes: sign changes and lead statistics of
Delta(x) = N_j(x) - N_j'(x).

Delta moves by +1, -1 or 0 at each integer.  Zeros are transparent for
sign-change detection: an event is recorded at the first x where Delta takes
a strict sign opposite to the last strict sign seen.  The initial run up to
the first nonzero value sets the starting sign and is not an event.

The scan has two levels.  Each sieve segment is cut into sub-blocks of
SUB_BLOCK integers (the last one shorter when the segment length is not a
multiple), and one bincount gives the count of every class in every
sub-block, for all pairs at once.  For one pair, let D be Delta just before
a sub-block and c, c' the counts of j and j' in it.  Inside the sub-block
Delta stays within [D - c', D + c], so where D > c' or D < -c it never
reaches zero: every n in the sub-block has the sign of D, there is no event
and no tie, and the last strict sign stays sign(D), which Delta already had
just before the sub-block.  Such a sub-block only adds its length to one
lead.  The test is exact, not a heuristic; the other sub-blocks, in
contiguous runs, go through the per-n scan.  Once |Delta| outgrows a
sub-block, which happens early for m > 2, almost every sub-block is skipped
and the cost per pair falls from O(x) to O(x / SUB_BLOCK).  Each side of
the test needs only one class count, which matters at m = 2: there c + c'
is the whole sub-block, while |Delta| stays near a sub-block's length
below 10^7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residues import residue_lut
from .sieve import DEFAULT_SEGMENT_SIZE, iter_segments

POSITIVE_TO_NEGATIVE = "positive-to-negative"
NEGATIVE_TO_POSITIVE = "negative-to-positive"

# Integers per sub-block of the skip test.  Short enough that |Delta| soon
# exceeds a sub-block's class counts, long enough that the per-sub-block
# arrays stay a small fraction of a segment.
SUB_BLOCK = 1024


@dataclass(frozen=True)
class RaceEvent:
    """One strict sign change, recorded at the x where the new sign appears."""

    x: int
    direction: str


@dataclass
class RaceSummary:
    """Full scan result for one ordered pair (j, jprime)."""

    m: int
    j: int
    jprime: int
    x_max: int
    events: list[RaceEvent]
    lead_pos: int   # integers n <= x_max with Delta(n) > 0
    lead_neg: int   # ... with Delta(n) < 0
    lead_tie: int   # ... with Delta(n) == 0
    final_delta: int


class _PairScanner:
    """Streaming state for one pair: running Delta, last strict sign, events."""

    def __init__(self, m: int, j: int, jprime: int):
        self.m = m
        self.j = j
        self.jprime = jprime
        self.delta = 0
        self.last_sign = 0
        self.events: list[RaceEvent] = []
        self.lead_pos = 0
        self.lead_neg = 0
        self.lead_tie = 0

    def feed(self, residues: np.ndarray, lo: int) -> None:
        steps = (residues == self.j).astype(np.int64) - (
            residues == self.jprime
        ).astype(np.int64)
        path = self.delta + np.cumsum(steps)
        self.lead_pos += int(np.count_nonzero(path > 0))
        self.lead_neg += int(np.count_nonzero(path < 0))
        self.lead_tie += int(np.count_nonzero(path == 0))
        nonzero = np.flatnonzero(path)
        if len(nonzero):
            signs = np.sign(path[nonzero])
            previous = np.empty(len(signs), dtype=np.int64)
            # An initial zero stretch has no sign to flip from.
            previous[0] = self.last_sign if self.last_sign != 0 else signs[0]
            previous[1:] = signs[:-1]
            for i in np.flatnonzero(signs != previous):
                direction = (
                    NEGATIVE_TO_POSITIVE if signs[i] > 0 else POSITIVE_TO_NEGATIVE
                )
                self.events.append(RaceEvent(x=lo + int(nonzero[i]), direction=direction))
            self.last_sign = int(signs[-1])
        self.delta = int(path[-1]) if len(path) else self.delta

    def feed_blocks(
        self, residues: np.ndarray, lo: int, counts: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Scan one segment given its per-sub-block class counts: skip the
        sub-blocks where Delta cannot reach zero, feed the rest in runs."""
        cj, cjp = counts[:, self.j], counts[:, self.jprime]
        ends = self.delta + np.cumsum(cj - cjp)
        starts = ends - (cj - cjp)
        skip = (starts > cjp) | (starts < -cj)
        self.lead_pos += int(lengths[skip & (starts > 0)].sum())
        self.lead_neg += int(lengths[skip & (starts < 0)].sum())
        # Maximal runs [a, b) of sub-blocks that need the per-n scan.
        edges = np.flatnonzero(np.diff(skip, prepend=True, append=True))
        # A skipped sub-block keeps the sign Delta had just before it, so
        # last_sign, set by the run that precedes it, needs no update.
        for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
            self.delta = int(starts[a])
            self.feed(residues[a * SUB_BLOCK : b * SUB_BLOCK], lo + a * SUB_BLOCK)
        self.delta = int(ends[-1])

    def summary(self, x_max: int) -> RaceSummary:
        return RaceSummary(
            m=self.m,
            j=self.j,
            jprime=self.jprime,
            x_max=x_max,
            events=self.events,
            lead_pos=self.lead_pos,
            lead_neg=self.lead_neg,
            lead_tie=self.lead_tie,
            final_delta=self.delta,
        )


def _scan(
    m: int,
    pairs: list[tuple[int, int]],
    x_max: int,
    *,
    segment_size: int,
    workers: int,
) -> list[RaceSummary]:
    if m < 2:
        raise ValueError(f"need m >= 2 to race two classes, got {m}")
    for j, jprime in pairs:
        if not (0 <= j < m and 0 <= jprime < m):
            raise ValueError(f"classes out of range: j={j}, jprime={jprime}, m={m}")
        if j == jprime:
            raise ValueError(f"classes must differ, got j = jprime = {j}")
    scanners = [_PairScanner(m, j, jprime) for j, jprime in pairs]
    lut = residue_lut(m).astype(np.uint8)
    offsets = np.empty(0, dtype=np.intp)
    for segment in iter_segments(x_max, segment_size=segment_size, workers=workers):
        residues = lut[segment.values]
        n = len(residues)
        if len(offsets) < n:
            # offsets[i] = m * (i // SUB_BLOCK), shared by equal segments.
            offsets = np.arange(n, dtype=np.intp) // SUB_BLOCK * m
        blocks = -(-n // SUB_BLOCK)
        counts = np.bincount(residues + offsets[:n], minlength=blocks * m)
        counts = counts.reshape(blocks, m)
        lengths = np.full(blocks, SUB_BLOCK, dtype=np.int64)
        lengths[-1] = n - (blocks - 1) * SUB_BLOCK
        for scanner in scanners:
            scanner.feed_blocks(residues, segment.lo, counts, lengths)
    return [scanner.summary(x_max) for scanner in scanners]


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
    return _scan(m, [(j, jprime)], x_max, segment_size=segment_size, workers=workers)[0]


def all_pairs(
    m: int,
    x_max: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> list[RaceSummary]:
    """Race every unordered pair j < jprime in one sieve pass."""
    pairs = [(j, jprime) for j in range(m) for jprime in range(j + 1, m)]
    return _scan(m, pairs, x_max, segment_size=segment_size, workers=workers)
