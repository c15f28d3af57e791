"""Fixtures shared by the unit suites."""

import pytest

from omegadist.residues import new_tally, tally_segment
from omegadist.sieve import iter_segments


def _tally_of(m, x_max):
    tally = new_tally(m)
    for segment in iter_segments(x_max):
        tally_segment(tally, segment)
    return tally


@pytest.fixture
def tally_of():
    """tally_of(m, x_max) is the ResidueTally of 1..x_max, built through the
    public streaming path: new_tally, then tally_segment over iter_segments."""
    return _tally_of
