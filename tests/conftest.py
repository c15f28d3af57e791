"""Fixtures shared by the unit suites."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegadist

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


def _peak_rss_growth_mb(statement):
    src = str(Path(omegadist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import re\n"
        "from omegadist.dirichlet import truncated_L\n"
        "from omegadist.sieve import primes_up_to\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return int(re.search(r'VmHWM:\\s*(\\d+)', status.read())[1])\n"
        "before = peak_kb()\n"
        f"{statement}\n"
        "print((peak_kb() - before) / 1024)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return float(done.stdout)


@pytest.fixture
def peak_rss_growth_mb():
    """peak_rss_growth_mb(statement) is how far a fresh interpreter's peak
    RSS rises, in MB, while it runs one statement that may call
    primes_up_to and truncated_L.  The peak is the child's VmHWM, read
    before and after: ru_maxrss would not do, because Linux starts it at
    the peak of the process that forked the child, here the whole test
    session, so a small child would read no growth at all."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs the Linux /proc/self/status peak RSS")
    return _peak_rss_growth_mb
