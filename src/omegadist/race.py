"""Races between residue classes: sign changes and lead statistics of
Delta(x) = N_j(x) - N_j'(x).

Delta moves by +1, -1 or 0 at each integer, so it is scanned as a cumulative
sum over sieve segments.  Zeros are transparent for sign-change detection:
an event is recorded at the first x where Delta takes a strict sign opposite
to the last strict sign seen.  The initial run up to the first nonzero value
sets the starting sign and is not an event.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .residues import residue_lut
from .sieve import DEFAULT_SEGMENT_SIZE, OmegaSegment, PrimeTable, clip_segments, iter_segments

POSITIVE_TO_NEGATIVE = "positive-to-negative"
NEGATIVE_TO_POSITIVE = "negative-to-positive"


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

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "j": self.j,
            "jprime": self.jprime,
            "x_max": self.x_max,
            "lead_pos": self.lead_pos,
            "lead_neg": self.lead_neg,
            "lead_tie": self.lead_tie,
            "final_delta": self.final_delta,
            "sign_changes": len(self.events),
            "events": [{"x": e.x, "direction": e.direction} for e in self.events],
        }


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
    table: PrimeTable | None,
    segment_size: int,
    workers: int,
    omega_source: Iterable[OmegaSegment] | None,
) -> list[RaceSummary]:
    if m < 2:
        raise ValueError(f"need m >= 2 to race two classes, got {m}")
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    for j, jprime in pairs:
        if not (0 <= j < m and 0 <= jprime < m):
            raise ValueError(f"classes out of range: j={j}, jprime={jprime}, m={m}")
        if j == jprime:
            raise ValueError(f"classes must differ, got j = jprime = {j}")
    scanners = [_PairScanner(m, j, jprime) for j, jprime in pairs]
    lut = residue_lut(m)
    source = omega_source if omega_source is not None else iter_segments(
        x_max, table=table, segment_size=segment_size, workers=workers
    )
    for lo, values in clip_segments(source, x_max):
        residues = lut[values]
        for scanner in scanners:
            scanner.feed(residues, lo)
    return [scanner.summary(x_max) for scanner in scanners]


def race_scan(
    m: int,
    j: int,
    jprime: int,
    x_max: int,
    *,
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    omega_source: Iterable[OmegaSegment] | None = None,
) -> RaceSummary:
    """Scan Delta(x) = N_j(x) - N_j'(x) for x <= x_max."""
    return _scan(
        m,
        [(j, jprime)],
        x_max,
        table=table,
        segment_size=segment_size,
        workers=workers,
        omega_source=omega_source,
    )[0]


def all_pairs(
    m: int,
    x_max: int,
    *,
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    omega_source: Iterable[OmegaSegment] | None = None,
) -> list[RaceSummary]:
    """Race every unordered pair j < jprime in one sieve pass."""
    pairs = [(j, jprime) for j in range(m) for jprime in range(j + 1, m)]
    return _scan(
        m,
        pairs,
        x_max,
        table=table,
        segment_size=segment_size,
        workers=workers,
        omega_source=omega_source,
    )


CSV_COLUMNS = [
    "m",
    "j",
    "jprime",
    "x",
    "direction",
    "lead_pos",
    "lead_neg",
    "lead_tie",
    "final_delta",
]


def csv_rows(summary: RaceSummary) -> list[list]:
    """Event rows plus one trailing summary row; None marks blank cells.

    Event rows fill m,j,jprime,x,direction; the summary row carries
    direction "summary" with the lead tallies and final Delta.
    """
    head = [summary.m, summary.j, summary.jprime]
    rows = [
        head + [event.x, event.direction, None, None, None, None]
        for event in summary.events
    ]
    rows.append(
        head
        + [
            summary.x_max,
            "summary",
            summary.lead_pos,
            summary.lead_neg,
            summary.lead_tie,
            summary.final_delta,
        ]
    )
    return rows


def write_csv(summaries: Iterable[RaceSummary], fileobj) -> None:
    """RFC-4180 rendering of csv_rows for one or more summaries."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for summary in summaries:
        for row in csv_rows(summary):
            writer.writerow(["" if cell is None else cell for cell in row])
