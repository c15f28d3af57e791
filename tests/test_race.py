"""Race-scan tests: hand-traced small examples, a per-n brute-force reference,
consistency with the exact tallies, event alternation, and the pair
enumeration."""

import itertools

import pytest

from omegadist.race import (
    NEGATIVE_TO_POSITIVE,
    POSITIVE_TO_NEGATIVE,
    all_pairs,
    race_scan,
)
from omegadist.residues import tally_range
from omegadist.sieve import iter_segments, omega_single


def test_hand_traced_m2():
    # Delta = N_0 - N_1 for n = 1..10 steps through
    # 1, 0, -1, 0, -1, 0, -1, -2, -1, 0
    summary = race_scan(2, 0, 1, 10)
    assert summary.final_delta == 0
    assert summary.lead_pos == 1
    assert summary.lead_neg == 5
    assert summary.lead_tie == 4
    assert [(e.x, e.direction) for e in summary.events] == [
        (3, POSITIVE_TO_NEGATIVE)
    ]


def test_initial_zero_run_is_not_an_event():
    # m = 3, j = 1 vs j' = 0: Delta = -1, 0, 1 -- the first strict sign is
    # negative, so the only event is the crossing to positive at n = 3.
    summary = race_scan(3, 1, 0, 3)
    assert [(e.x, e.direction) for e in summary.events] == [
        (3, NEGATIVE_TO_POSITIVE)
    ]
    assert (summary.lead_pos, summary.lead_neg, summary.lead_tie) == (1, 1, 1)


def test_events_alternate_and_increase():
    for summary in all_pairs(3, 50_000):
        xs = [e.x for e in summary.events]
        assert xs == sorted(xs) and len(xs) == len(set(xs))
        for a, b in zip(summary.events, summary.events[1:]):
            assert a.direction != b.direction


def test_final_delta_matches_tally():
    x_max = 30_000
    tally = tally_range(4, x_max)
    for summary in all_pairs(4, x_max):
        expected = int(tally.counts[summary.j] - tally.counts[summary.jprime])
        assert summary.final_delta == expected


def test_lead_counts_partition_the_range():
    for summary in all_pairs(5, 12_345):
        total = summary.lead_pos + summary.lead_neg + summary.lead_tie
        assert total == summary.x_max == 12_345


def test_antisymmetry_of_swapped_classes():
    a = race_scan(3, 0, 1, 20_000)
    b = race_scan(3, 1, 0, 20_000)
    assert a.final_delta == -b.final_delta
    assert a.lead_pos == b.lead_neg and a.lead_neg == b.lead_pos
    assert a.lead_tie == b.lead_tie
    assert len(a.events) == len(b.events)
    flip = {POSITIVE_TO_NEGATIVE: NEGATIVE_TO_POSITIVE,
            NEGATIVE_TO_POSITIVE: POSITIVE_TO_NEGATIVE}
    for ea, eb in zip(a.events, b.events):
        assert ea.x == eb.x and ea.direction == flip[eb.direction]


def test_segment_size_invisible():
    a = race_scan(3, 0, 2, 10_000, segment_size=1 << 20)
    b = race_scan(3, 0, 2, 10_000, segment_size=977)
    assert a.final_delta == b.final_delta
    assert [(e.x, e.direction) for e in a.events] == [
        (e.x, e.direction) for e in b.events
    ]
    assert (a.lead_pos, a.lead_neg, a.lead_tie) == (b.lead_pos, b.lead_neg, b.lead_tie)


def _reference_race(omegas, m, j, jprime):
    """Per-n scan of Delta = N_j - N_j' straight from the definition."""
    delta = last_sign = 0
    events = []
    leads = {1: 0, -1: 0, 0: 0}
    for n, omega in enumerate(omegas, start=1):
        delta += (omega % m == j) - (omega % m == jprime)
        sign = (delta > 0) - (delta < 0)
        leads[sign] += 1
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                direction = NEGATIVE_TO_POSITIVE if sign > 0 else POSITIVE_TO_NEGATIVE
                events.append((n, direction))
            last_sign = sign
    return events, (leads[1], leads[-1], leads[0]), delta


@pytest.mark.parametrize("m", range(2, 8))
def test_all_pairs_matches_per_n_reference(m):
    x_max = 5000  # several 1024-blocks, so the scan state crosses boundaries
    omegas = [omega_single(n) for n in range(1, x_max + 1)]
    for summary in all_pairs(m, x_max, segment_size=1024):
        events, leads, delta = _reference_race(omegas, m, summary.j, summary.jprime)
        assert [(e.x, e.direction) for e in summary.events] == events
        assert (summary.lead_pos, summary.lead_neg, summary.lead_tie) == leads
        assert summary.final_delta == delta


def test_all_pairs_enumeration():
    assert [(s.j, s.jprime) for s in all_pairs(2, 100)] == [(0, 1)]
    pairs = [(s.j, s.jprime) for s in all_pairs(4, 100)]
    assert pairs == list(itertools.combinations(range(4), 2))


def test_all_pairs_matches_individual_scans():
    bundle = {(s.j, s.jprime): s for s in all_pairs(3, 5000)}
    for j, jprime in itertools.combinations(range(3), 2):
        solo = race_scan(3, j, jprime, 5000)
        packed = bundle[(j, jprime)]
        assert solo.final_delta == packed.final_delta
        assert [e.x for e in solo.events] == [e.x for e in packed.events]


def test_custom_omega_source():
    segments = list(iter_segments(2000, segment_size=256))
    a = race_scan(3, 0, 1, 2000, omega_source=segments)
    b = race_scan(3, 0, 1, 2000)
    assert a.final_delta == b.final_delta and len(a.events) == len(b.events)


def test_validation_errors():
    with pytest.raises(ValueError):
        race_scan(3, 1, 1, 100)
    with pytest.raises(ValueError):
        race_scan(3, 0, 3, 100)
    with pytest.raises(ValueError):
        race_scan(1, 0, 0, 100)
    with pytest.raises(ValueError):
        race_scan(3, 0, 1, 0)
