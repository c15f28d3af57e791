"""The benchmark's workloads: what one timed pass runs and how its output is
checked.

A workload has three parts.  ``prepare`` does the pre-timing set-up,
``run_pass`` is the timed part and returns raw outputs, and ``check_pass``
gates those outputs outside the timed section.  A pass is made of
``steps`` steps (CLI operations or sieve blocks); ``run_pass`` calls its
optional ``between`` after each, where the run times the yardstick.  Every check counts one
attempted operation, so a wrong answer adds to the failure ratio and never
aborts the run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import omegadist.cli
from omegadist import residues, sieve

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Moduli folded by the density sweeps and by the window workload.
MODULI = tuple(range(2, 13))

#: The window starts at WINDOW_BASE plus a seeded offset below WINDOW_JITTER,
#: so every seed sieves a different stretch at the same height.
WINDOW_BASE = 10**12
WINDOW_JITTER = 10**9

#: Window positions checked against the trial-division oracle per seed.
ORACLE_SAMPLES = 48


@dataclass
class Gate:
    """Attempted and failed operation counts, with one line per failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")


def load_digests() -> dict[str, dict]:
    """Exit code and stdout sha256 per CLI argv, pinned at the seed commit."""
    return json.loads(DIGESTS_PATH.read_text())


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def moduli_flags(moduli) -> list[str]:
    return [flag for m in moduli for flag in ("--m", str(m))]


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """omegadist.cli.main(argv) in-process with stdout captured.

    An escaped exception is reported as exit code None, so one broken
    operation fails on its own instead of ending the run.  The lookup goes
    through the module attribute so the traced run sees its wrapper.
    """
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = omegadist.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the gate reports it; the run goes on
        return None, f"{type(exc).__name__}: {exc}"
    return code, buffer.getvalue()


# ------------------------------------------------------------ CLI workloads


@dataclass
class CliOutput:
    argv: list[str]
    code: int | None
    stdout: str
    wall: float


class CliWorkload:
    """A fixed list of CLI operations, run serially in one process."""

    def __init__(self, ops: list[list[str]], workers: int = 1,
                 serial_ops: list[list[str]] | None = None):
        self.ops = ops
        self.workers = workers
        #: The same operations with --workers 1, for the pool speed-up.
        self.serial_ops = serial_ops
        self.digests = load_digests()
        self._checked: dict[str, list[str]] = {}

    @property
    def steps(self) -> int:
        return len(self.ops)

    def prepare(self) -> None:
        """The CLI builds its own tables; nothing to do before timing."""

    def run_pass(self, ops: list[list[str]] | None = None, between=None) -> list[CliOutput]:
        outputs = []
        for argv in ops or self.ops:
            start = time.perf_counter()
            code, stdout = run_cli(argv)
            outputs.append(CliOutput(argv, code, stdout, time.perf_counter() - start))
            if between is not None:
                between()
        return outputs

    def op_walls(self, outputs: list[CliOutput]) -> dict[str, float]:
        """Wall time of each subcommand in one pass."""
        return {out.argv[0]: out.wall for out in outputs}

    def check_pass(self, outputs: list[CliOutput], gate: Gate) -> None:
        for out in outputs:
            gate.record(argv_key(out.argv), self._problems(out))

    def output_bytes(self, outputs: list[CliOutput]) -> int:
        return sum(len(out.stdout.encode()) for out in outputs)

    def _problems(self, out: CliOutput) -> list[str]:
        if out.code is None:
            return [f"raised {out.stdout}"]
        data = out.stdout.encode()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        pinned = self.digests.get(argv_key(out.argv))
        if pinned is None:
            problems.append("no pinned digest")
        else:
            if out.code != pinned["exit"]:
                problems.append(f"exit {out.code}, pinned {pinned['exit']}")
            if digest != pinned["sha256"]:
                problems.append(f"stdout sha256 {digest[:12]}, pinned {pinned['sha256'][:12]}")
        # The invariants depend only on the bytes, so each distinct output is
        # parsed once per run.
        if digest not in self._checked:
            self._checked[digest] = invariant_problems(out.argv[0], out.stdout)
        return problems + self._checked[digest]


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def invariant_problems(command: str, text: str) -> list[str]:
    """Checks that hold for any correct output, independent of the digests."""
    if command == "density":
        return _density_problems(_csv_rows(text))
    if command == "error-growth":
        return _error_growth_problems(_csv_rows(text))
    if command == "race":
        return _race_problems(_csv_rows(text))
    return []


def _density_problems(rows: list[dict]) -> list[str]:
    groups = defaultdict(list)
    for row in rows:
        groups[int(row["m"]), int(row["x"])].append(row)
    if not groups:
        return ["density output has no rows"]
    problems = []
    top = {}
    for (m, x), group in groups.items():
        counts = [int(row["count"]) for row in group]
        scaled = [int(row["scaled_residual"]) for row in group]
        if len(group) != m or sum(counts) != x:
            problems.append(f"m={m} x={x}: counts sum to {sum(counts)}")
        if sum(scaled) != 0 or any(s != m * c - x for s, c in zip(scaled, counts)):
            problems.append(f"m={m} x={x}: scaled residuals inconsistent")
        if x > top.get(m, (0, None))[0]:
            top[m] = (x, counts)
    for m, (x, counts) in top.items():
        problems += roundtrip_problems(m, x, np.array(counts, dtype=np.int64))
    return problems


def _error_growth_problems(rows: list[dict]) -> list[str]:
    groups = defaultdict(list)
    for row in rows:
        if row["kind"] == "checkpoint":
            groups[int(row["m"]), int(row["x"])].append(int(row["scaled_residual"]))
    if not groups:
        return ["error-growth output has no checkpoints"]
    return [
        f"m={m} x={x}: scaled residuals do not sum to zero"
        for (m, x), scaled in groups.items()
        if sum(scaled) != 0 or any((s + x) % m for s in scaled)
    ]


def _race_problems(rows: list[dict]) -> list[str]:
    summaries = [row for row in rows if row["direction"] == "summary"]
    problems = []
    for row in summaries:
        leads = int(row["lead_pos"]) + int(row["lead_neg"]) + int(row["lead_tie"])
        if leads != int(row["x"]):
            problems.append(f"pair ({row['j']},{row['jprime']}): leads sum to {leads}")
    return problems


def roundtrip_problems(m: int, x: int, counts: np.ndarray) -> list[str]:
    """counts_from_sums(sums_from_counts(t)) must return t's counts exactly."""
    tally = residues.ResidueTally(m=m, x=x, counts=counts)
    sums = residues.sums_from_counts(tally)
    try:
        recovered = residues.counts_from_sums(sums)
    except residues.InconsistentTransformError as exc:
        return [f"m={m}: inverse transform refused: {exc}"]
    if not np.array_equal(recovered.counts, counts):
        return [f"m={m}: transform round trip changed the counts"]
    return []


# ------------------------------------------------------------ window workload


@dataclass
class WindowOutput:
    segments: list[sieve.OmegaSegment]
    tallies: dict[int, residues.ResidueTally]
    transforms: dict[int, object]  # m -> recovered tally, or the refusal


class WindowWorkload:
    """Sieve contiguous blocks high up, fold them per modulus, transform.

    Calls the library directly: omega_block on each block, tally_segment for
    every modulus, then the forward and inverse transform of each window
    tally.  The seed picks the start offset and the oracle positions.
    """

    def __init__(self, seed: int, blocks: int, block_size: int):
        self.workers = 1
        rng = np.random.default_rng(seed)
        self.lo = WINDOW_BASE + int(rng.integers(0, WINDOW_JITTER))
        self.hi = self.lo + blocks * block_size
        self.bounds = [
            (lo, lo + block_size) for lo in range(self.lo, self.hi, block_size)
        ]
        self.positions = np.sort(
            rng.choice(self.hi - self.lo, size=min(ORACLE_SAMPLES, self.hi - self.lo),
                       replace=False)
        )
        self.table: sieve.PrimeTable | None = None
        self._expected: list[int] | None = None

    def prepare(self) -> None:
        self.table = sieve.primes_up_to(math.isqrt(self.hi - 1))

    @property
    def steps(self) -> int:
        return len(self.bounds)

    def run_pass(self, between=None) -> WindowOutput:
        tallies = {m: residues.new_tally(m, self.lo) for m in MODULI}
        segments = []
        for lo, hi in self.bounds:
            segment = sieve.omega_block(lo, hi, self.table)
            for tally in tallies.values():
                residues.tally_segment(tally, segment)
            segments.append(segment)
            if between is not None:
                between()
        transforms = {}
        for m, tally in tallies.items():
            # Character sums are defined for tallies anchored at 1; the
            # window's counts re-anchored give the windowed sums.
            anchored = residues.ResidueTally(m=m, x=self.hi - self.lo, counts=tally.counts)
            sums = residues.sums_from_counts(anchored)
            residues.inverse_residuals(sums)  # traced as residues.inverse_residual_max
            try:
                transforms[m] = residues.counts_from_sums(sums)
            except residues.InconsistentTransformError as exc:
                transforms[m] = exc
        return WindowOutput(segments, tallies, transforms)

    def expected_omegas(self) -> list[int]:
        """omega_single at the seeded positions, computed once per run."""
        if self._expected is None:
            self._expected = [sieve.omega_single(self.lo + int(i)) for i in self.positions]
        return self._expected

    def check_pass(self, out: WindowOutput, gate: Gate) -> None:
        values = np.concatenate([segment.values for segment in out.segments])
        expected = self.expected_omegas()
        for lo, hi in self.bounds:
            problems = [
                f"Omega({self.lo + int(i)}) = {int(values[i])}, oracle {want}"
                for i, want in zip(self.positions, expected)
                if lo <= self.lo + int(i) < hi and int(values[i]) != want
            ]
            gate.record(f"omega_block [{lo}, {hi})", problems)
        hist = np.bincount(values, minlength=64)
        for m, tally in out.tallies.items():
            gate.record(f"tally m={m}", self._tally_problems(m, tally, hist, out.transforms[m]))

    def _tally_problems(self, m, tally, hist, transform) -> list[str]:
        problems = []
        if int(tally.counts.sum()) != self.hi - self.lo or tally.x != self.hi - 1:
            problems.append(f"counts sum to {int(tally.counts.sum())}")
        folded = np.array([hist[j::m].sum() for j in range(m)], dtype=np.int64)
        if not np.array_equal(folded, tally.counts):
            problems.append("counts differ from the histogram of the Omega values")
        if isinstance(transform, Exception):
            problems.append(f"inverse transform refused: {transform}")
        elif not np.array_equal(transform.counts, tally.counts):
            problems.append("transform round trip changed the counts")
        return problems

    def output_bytes(self, out: WindowOutput) -> int:
        return 0

    def op_walls(self, out: WindowOutput) -> dict[str, float]:
        return {}


# ------------------------------------------------------------ registry

#: Why each workload exists; BENCHMARK.json repeats these one-liners.
WHY = {
    "pipeline-1e7": "serial research run at x=1e7 through the CLI: six subcommands, the only load on hall, dirichlet and CLI formatting",
    "sweep-1e8-w2": "density for m=2..12 to 1e8 with two pool workers: low-height sieve and process pool, no race",
    "window-1e12": "six 2^20 blocks near 1e12 through omega_block and the tally fold: the large-prime sieve regime",
}

#: Yardstick kernels that scale each workload's times: the ones shaped like
#: its hot path (see yardstick.py).  The window is the sieve's per-prime
#: interpreter loop; the pipeline and the sweep mix sieving, tallying and
#: Python-level formatting.
KERNELS = {
    "pipeline-1e7": ("sieve", "stream", "python"),
    "sweep-1e8-w2": ("sieve", "stream", "python"),
    "window-1e12": ("sieve", "python"),
}

#: Sizes per scale.  "full" is what the benchmark measures; "tiny" runs each
#: workload in well under a second for the benchmark's own tests.
SIZES = {
    "full": {"x": 10**7, "sweep_x": 10**8, "sweep_segment": None,
             "dirichlet": [], "selftest": [], "blocks": 6, "block_size": 1 << 20},
    "tiny": {"x": 10**4, "sweep_x": 2 * 10**5, "sweep_segment": 1 << 14,
             "dirichlet": ["--n-max", "10000", "--p-max", "1000"],
             "selftest": ["--x-limit", "1000"], "blocks": 2, "block_size": 1 << 12},
}


def sweep_ops(size: dict, workers: int) -> list[list[str]]:
    argv = ["density", *moduli_flags(MODULI), "--x-max", str(size["sweep_x"])]
    if size["sweep_segment"]:
        argv += ["--segment-size", str(size["sweep_segment"])]
    return [argv + ["--workers", str(workers)]]


def make_workload(name: str, seed: int, scale: str = "full"):
    size = SIZES[scale]
    x = str(size["x"])
    if name == "pipeline-1e7":
        return CliWorkload([
            ["density", *moduli_flags(MODULI), "--x-max", x],
            ["error-growth", *moduli_flags(MODULI), "--x-max", x],
            ["hall", *moduli_flags(range(3, 9)), "--x-max", x],
            ["dirichlet-check", "--m", "2", "--m", "3", *size["dirichlet"]],
            ["race", "--m", "3", "--x-max", x],
            ["selftest", *size["selftest"]],
        ])
    if name == "sweep-1e8-w2":
        return CliWorkload(sweep_ops(size, 2), workers=2,
                           serial_ops=sweep_ops(size, 1))
    if name == "window-1e12":
        return WindowWorkload(seed, size["blocks"], size["block_size"])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")
