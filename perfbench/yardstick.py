"""Host-speed yardstick: fixed kernels timed between the passes of a run.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent for tens of seconds to minutes at a time, longer than one
run.  A pass timed in a slow phase reads slow although the program did not
change.  The yardstick measures that drift: a few fixed kernels that use
only Python and numpy, never omegadist, so no change to the program can move
them.  Timed between the passes of the same run, they see the same phase the
passes see, and dividing a pass time by the host's speed factor (mean
yardstick time over its nominal time) scales it to a host running at
nominal speed.

Each kernel mimics one kind of work the program does, because a host phase
slows interpreter-bound, dispatch-bound and memory-bound code by different
amounts; each workload is scaled by the kernels that match its hot path.
"""

from __future__ import annotations

import csv
import io
import statistics
import subprocess
import sys
import time

import numpy as np

BLOCK = 1 << 20
BLOCK_LO = 10**12


def _primes_below(limit: int) -> list[int]:
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(flags)]


class Yardstick:
    """The kernels with their fixed inputs, built once per run."""

    #: Seconds each kernel takes on the reference host (2-vCPU Xeon, quiet).
    #: Only their ratio to the samples of a run matters, and that ratio is
    #: the same for every commit measured, so these never need re-pinning.
    NOMINAL_S = {"sieve": 0.22, "stream": 0.14, "python": 0.11, "startup": 0.22}

    def __init__(self):
        self._strides = _primes_below(400_000)
        self._classes = np.random.default_rng(12345).integers(0, 12, size=BLOCK, dtype=np.uint8)

    def sieve(self) -> int:
        """Per-prime strided updates of a 2^20 block near 10^12: the shape of
        the block sieve high up, dominated by the interpreter, numpy
        dispatch and scattered memory access."""
        values = np.zeros(BLOCK, dtype=np.uint8)
        residual = np.arange(BLOCK_LO, BLOCK_LO + BLOCK, dtype=np.uint64)
        for p in self._strides:
            marked = slice((-BLOCK_LO) % p, BLOCK, p)
            values[marked] += 1
            residual[marked] //= np.uint64(p)
        return int(values.sum())

    def stream(self) -> int:
        """Whole-array passes over 2^20 int64 entries: the shape of the race
        scan and the tally fold, bound by memory bandwidth."""
        total = 0
        for j in range(12):
            steps = (self._classes == j % 12).astype(np.int64)
            steps -= self._classes == (j + 5) % 12
            path = np.cumsum(steps)
            total += int(np.count_nonzero(path > 0)) + int(np.count_nonzero(path == 0))
            total += int(np.bincount(self._classes[j % 3 :: 3], minlength=12)[j % 12])
        return total

    def python(self) -> int:
        """CSV formatting and parsing with dict updates: the shape of the
        CLI's output, the benchmark's checks and interpreter start-up."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        sums: dict[int, int] = {}
        for i in range(50_000):
            writer.writerow([i, i % 12, 7 * i - 3, "x"])
            sums[i % 997] = sums.get(i % 997, 0) + i
        return sum(1 for _ in csv.reader(io.StringIO(buffer.getvalue()))) + len(sums)

    def startup(self) -> int:
        """A fresh interpreter that imports numpy: the shape of the
        benchmark's set-up probes, bound by process start and imports."""
        return subprocess.run([sys.executable, "-c", "import numpy"], check=True).returncode

    def measure(self, kernels, tick_s: float) -> dict[str, float]:
        """Wall seconds of one run of each named kernel, averaged over as
        many runs as make the whole take about `tick_s` at nominal speed.

        The count is fixed by the nominal times, never by the speed seen, so
        a slow phase is not under-sampled."""
        repeats = max(1, round(tick_s / sum(self.NOMINAL_S[name] for name in kernels)))
        sample = dict.fromkeys(kernels, 0.0)
        for _ in range(repeats):
            for name in kernels:
                start = time.perf_counter()
                getattr(self, name)()
                sample[name] += time.perf_counter() - start
        return {name: seconds / repeats for name, seconds in sample.items()}


def speed_factor(samples: list[dict[str, float]], kernels) -> float:
    """How much slower than nominal the host ran: the mean yardstick time
    over its nominal time.  Above 1 means a slow phase.

    A mean, not a median: the host switches between a fast and a slow speed
    every few seconds, and a mean follows the share of time spent at each,
    for the yardstick as for the passes, where a median jumps between them.
    """
    measured = statistics.fmean(sum(s[name] for name in kernels) for s in samples)
    return measured / sum(Yardstick.NOMINAL_S[name] for name in kernels)
