"""Race-scan tests: hand-traced small examples, a per-n brute-force reference,
a one-cumsum reference, synthetic walks at the edges of the sub-block skip
test, consistency with the exact tallies, event alternation, and the pair
enumeration."""

import itertools

import numpy as np
import pytest

from omegadist import race
from omegadist.race import (
    NEGATIVE_TO_POSITIVE,
    POSITIVE_TO_NEGATIVE,
    SUB_BLOCK,
    all_pairs,
    race_scan,
)
from omegadist.sieve import OmegaSegment, iter_segments, omega_single


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


def test_final_delta_matches_tally(tally_of):
    x_max = 30_000
    tally = tally_of(4, x_max)
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
    a = race_scan(3, 0, 1, 2000, segment_size=256)
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


def _cumsum_reference(omegas, m, j, jprime):
    """Delta at every n from one cumsum over the whole range: the scan as it
    was before sub-blocks were skipped.  Same result shape as
    _reference_race."""
    residues = np.asarray(omegas, dtype=np.int64) % m
    path = np.cumsum((residues == j).astype(np.int64) - (residues == jprime))
    nonzero = np.flatnonzero(path)
    signs = np.sign(path[nonzero])
    events = [
        (int(nonzero[i]) + 1, NEGATIVE_TO_POSITIVE if signs[i] > 0 else POSITIVE_TO_NEGATIVE)
        for i in np.flatnonzero(signs[1:] != signs[:-1]) + 1
    ]
    leads = tuple(int(np.count_nonzero(test)) for test in (path > 0, path < 0, path == 0))
    return events, leads, int(path[-1])


def _patch_stream(monkeypatch, omegas, segment_size):
    """Make the race read the given values, for n = 1, 2, ..., cut into
    segments of segment_size, in place of the sieve stream.  Every scan
    gets a fresh iterator, so several scans may read the same walk."""
    values = np.asarray(omegas, dtype=np.uint8)
    segments = [
        OmegaSegment(lo + 1, min(lo + segment_size, len(values)) + 1, values[lo : lo + segment_size])
        for lo in range(0, len(values), segment_size)
    ]

    def stream(x_max, **_):
        assert x_max == len(values)
        return iter(segments)

    monkeypatch.setattr(race, "iter_segments", stream)


def _assert_matches(summaries, omegas, m, reference):
    for summary in summaries:
        events, leads, delta = reference(omegas, m, summary.j, summary.jprime)
        assert [(e.x, e.direction) for e in summary.events] == events
        assert (summary.lead_pos, summary.lead_neg, summary.lead_tie) == leads
        assert summary.final_delta == delta


def _walk(*runs):
    """Omega values made of runs (omega, count), in order."""
    return np.concatenate([np.full(count, omega, dtype=np.uint8) for omega, count in runs])


# m = 3, pair (0, 1): class 2 leaves Delta alone.  D = 300.
_EDGE_WALKS = {
    # Sub-block 1 starts at Delta = 300 and holds exactly 300 of class 1,
    # so |Delta_start| == c_j + c_j' and it must be scanned per n: Delta
    # touches 0 on its last integer, n = 2L.  Sub-block 2 starts at 0, dips
    # to -1 on its first integer (an event at 2L + 1), and sub-block 3
    # climbs back through 0 to +1.
    "equal-touches-zero-at-edge": _walk(
        (0, 300), (2, SUB_BLOCK - 300),
        (2, SUB_BLOCK - 300), (1, 300),
        (1, 1), (2, SUB_BLOCK - 1),
        (0, 2), (2, SUB_BLOCK - 2),
    ),
    # One above the edge: sub-block 1 is skipped and ends at Delta = 1, the
    # next sub-block falls through 0 to -1 right at its start.
    "one-above-edge": _walk(
        (0, 301), (2, SUB_BLOCK - 301),
        (2, SUB_BLOCK - 300), (1, 300),
        (1, 2), (2, SUB_BLOCK - 2),
        (0, 5), (2, SUB_BLOCK - 5),
    ),
    # Equal counts that leave Delta strictly positive: 299 of class 1 and
    # one of class 0 first, so Delta bottoms out at 2 and then grows.
    "equal-stays-positive": _walk(
        (0, 300), (2, SUB_BLOCK - 300),
        (0, 1), (1, 299), (2, SUB_BLOCK - 300),
        (0, SUB_BLOCK // 2), (1, SUB_BLOCK // 2),
    ),
    # Negative side of the edge: Delta reaches -300 and comes back to 0
    # exactly at the end of sub-block 1.
    "equal-negative": _walk(
        (1, 300), (2, SUB_BLOCK - 300),
        (2, SUB_BLOCK - 300), (0, 300),
        (0, 1), (2, SUB_BLOCK - 1),
    ),
}


@pytest.mark.parametrize("segment_size", [SUB_BLOCK, 4 * SUB_BLOCK, 977, 1031])
@pytest.mark.parametrize("name", list(_EDGE_WALKS))
def test_skip_test_edges_match_reference(name, segment_size, monkeypatch):
    omegas = _EDGE_WALKS[name]
    _patch_stream(monkeypatch, omegas, segment_size)
    summaries = all_pairs(3, len(omegas))
    _assert_matches(summaries, omegas.tolist(), 3, _reference_race)


def test_edge_walk_records_the_zero_on_the_sub_block_edge(monkeypatch):
    # The walk is built so that the scan must see Delta = 0 at n = 2L and
    # the sign change at n = 2L + 1; pin both, not only the agreement.
    omegas = _EDGE_WALKS["equal-touches-zero-at-edge"]
    _patch_stream(monkeypatch, omegas, SUB_BLOCK)
    summary = race_scan(3, 0, 1, len(omegas))
    assert [(e.x, e.direction) for e in summary.events] == [
        (2 * SUB_BLOCK + 1, POSITIVE_TO_NEGATIVE),
        (3 * SUB_BLOCK + 2, NEGATIVE_TO_POSITIVE),
    ]
    assert summary.lead_tie == 2


# The one-sided test skips where Delta_start > c_j' or Delta_start < -c_j.
# At m = 2 every n is in class 0 or 1, so c_j + c_j' is the whole
# sub-block and only these edges matter.  L = SUB_BLOCK.
_ONE_SIDED_WALKS = {
    # m = 2: Delta_start = L = c_j' in sub-block 1, which holds only class
    # 1, so Delta touches 0 on its last integer, n = 2L; then it dips to -1.
    (2, "touches-zero-at-edge"): _walk(
        (0, SUB_BLOCK), (1, SUB_BLOCK), (1, 1), (0, SUB_BLOCK - 1), (1, SUB_BLOCK),
    ),
    # m = 2: Delta_start = L = c_j' + 1 in sub-block 1, so it is skipped
    # and Delta bottoms out at 1; sub-block 2 falls through 0 to -1.
    (2, "one-above-edge"): _walk(
        (0, SUB_BLOCK), (1, SUB_BLOCK - 1), (0, 1), (1, 3), (0, SUB_BLOCK - 3),
        (0, SUB_BLOCK),
    ),
    # The negative mirror of the two walks above: Delta_start = -c_j, then
    # Delta_start = -c_j - 1.
    (2, "negative-touches-zero-at-edge"): _walk(
        (1, SUB_BLOCK), (0, SUB_BLOCK), (0, 1), (1, SUB_BLOCK - 1), (0, SUB_BLOCK),
    ),
    (2, "negative-one-below-edge"): _walk(
        (1, SUB_BLOCK), (0, SUB_BLOCK - 1), (1, 1), (0, 3), (1, SUB_BLOCK - 3),
        (1, SUB_BLOCK),
    ),
    # m = 3, pair (0, 1), where c_j > 0 inside the edge sub-blocks: Delta
    # starts sub-block 1 at 300 = c_j', touches 0 in the middle and climbs
    # to 200; sub-block 2 starts at 200 = c_j' + 1 and is skipped although
    # |Delta_start| < c_j + c_j'; sub-block 3 crosses 0.
    (3, "mixed-classes"): _walk(
        (0, 300), (2, SUB_BLOCK - 300),
        (1, 300), (0, 200), (2, SUB_BLOCK - 500),
        (1, 199), (0, 100), (2, SUB_BLOCK - 299),
        (1, 102), (2, SUB_BLOCK - 102),
    ),
}


@pytest.mark.parametrize("segment_size", [SUB_BLOCK, 4 * SUB_BLOCK, 977, 1031])
@pytest.mark.parametrize("m,name", list(_ONE_SIDED_WALKS))
def test_one_sided_skip_edges_match_reference(m, name, segment_size, monkeypatch):
    omegas = _ONE_SIDED_WALKS[m, name]
    _patch_stream(monkeypatch, omegas, segment_size)
    summaries = [
        race_scan(m, j, jprime, len(omegas))
        for j, jprime in itertools.permutations(range(m), 2)
    ]
    _assert_matches(summaries, omegas.tolist(), m, _reference_race)


def _fed_lengths(monkeypatch):
    """Patch the per-n scan to record the length of every run it gets."""
    fed = []
    feed = race._PairScanner.feed

    def counting_feed(self, residues, lo):
        fed.append(len(residues))
        feed(self, residues, lo)

    monkeypatch.setattr(race._PairScanner, "feed", counting_feed)
    return fed


def test_one_above_edge_sub_blocks_skip_the_per_n_scan(monkeypatch):
    # Sub-blocks 1 (Delta_start = c_j' + 1) and 3 (Delta_start = L - 4,
    # c_j' = 0) are skipped; a two-sided |Delta_start| > c_j + c_j' scans
    # both.
    fed = _fed_lengths(monkeypatch)
    omegas = _ONE_SIDED_WALKS[2, "one-above-edge"]
    _patch_stream(monkeypatch, omegas, 4 * SUB_BLOCK)
    race_scan(2, 0, 1, len(omegas))
    assert fed == [SUB_BLOCK, SUB_BLOCK]


@pytest.mark.parametrize("segment_size", [977, 1031, 3 * SUB_BLOCK + 5])
@pytest.mark.parametrize("m", [3, 4])
def test_odd_segment_sizes_match_reference(m, segment_size):
    x_max = 100_000  # most sub-blocks are skipped here
    omegas = np.concatenate([s.values for s in iter_segments(x_max)])
    summaries = all_pairs(m, x_max, segment_size=segment_size)
    _assert_matches(summaries, omegas, m, _cumsum_reference)


def test_liouville_race_matches_cumsum_reference():
    x_max = 10**6
    omegas = np.concatenate([s.values for s in iter_segments(x_max)])
    _assert_matches(all_pairs(2, x_max), omegas, 2, _cumsum_reference)


def test_most_sub_blocks_skip_the_per_n_scan(monkeypatch):
    # At m = 3 and x = 10^6, |Delta| is far above a sub-block's counts for
    # two of the three pairs; only a few percent of n reach the per-n scan.
    fed = _fed_lengths(monkeypatch)
    all_pairs(3, 10**6)
    assert sum(fed) < 0.2 * 3 * 10**6


def test_liouville_race_skips_most_of_the_per_n_scan(monkeypatch):
    # At m = 2, |Delta| = |L(x)| stays near a sub-block's length up to 10^6;
    # the one-sided test still skips about 40% of n there (a two-sided
    # test skips under 3%).
    fed = _fed_lengths(monkeypatch)
    all_pairs(2, 10**6)
    assert sum(fed) < 0.7 * 10**6
