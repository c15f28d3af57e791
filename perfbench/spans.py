"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of omegadist in the module namespaces that
call them (``omegadist.race.iter_segments``, ``omegadist.cli.record_many``,
``omegadist.dirichlet.truncated_L``, ...), so nothing inside ``src/`` changes.
Each call becomes a span with a name, start, end and the time covered by its
child spans; self time is duration minus child time.  A streamed sieve
(``iter_segments``) gets one span per ``next()``.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

import numpy as np

import omegadist.cli
import omegadist.dirichlet
import omegadist.errorterms
import omegadist.race
import omegadist.residues
import omegadist.sieve


class Span:
    __slots__ = ("name", "op", "start", "end", "child", "attrs")

    def __init__(self, name: str, op: str | None):
        self.name = name
        self.op = op
        self.child = 0.0
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` labels the spans of the operation running now."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._open: list[Span] = []

    def _enter(self, name: str) -> Span:
        span = Span(name, self.op)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self._open:
            self._open[-1].child += span.duration
        self.spans.append(span)

    def wrap(self, fn, name: str, attrs=None, labels_op: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if labels_op:  # cli.main(argv): spans below belong to argv[0]
                self.op = args[0][0] if args and args[0] else None
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
                if labels_op:
                    self.op = None
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def wrap_stream(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._stream(fn(*args, **kwargs), name, kwargs.get("workers", 1))

        return traced

    def _stream(self, inner, name: str, workers: int):
        try:
            while True:
                span = self._enter(name)
                span.attrs = {"workers": workers}
                try:
                    segment = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(span)
                span.attrs.update(lo=segment.lo, hi=segment.hi)
                yield segment
        finally:
            inner.close()

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for module, attr, name, kind in _PATCHES:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if kind == "stream":
                    wrapped = self.wrap_stream(original, name)
                else:
                    wrapped = self.wrap(original, name, _ATTRS.get(kind), kind == "main")
                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _omega_block_attrs(args, segment):
    _, hi, table = args
    root = math.isqrt(hi - 1)
    return {"primes": int(np.searchsorted(table.primes, root, side="right"))}


_ATTRS = {
    "omega_block": _omega_block_attrs,
    "table": lambda args, table: {"bytes": table.primes.nbytes + table.limit + 1},
    "record_many": lambda args, series: {
        "checkpoints": sum(len(s.checkpoints) for s in series.values())
    },
    "race": lambda args, result: {
        "pairs": len(result) if isinstance(result, list) else 1,
        "events": sum(len(s.events) for s in (result if isinstance(result, list) else [result])),
    },
    "residuals": lambda args, result: {"residual": max(result)},
}

_cli, _dir, _err = omegadist.cli, omegadist.dirichlet, omegadist.errorterms
_race, _res, _sieve = omegadist.race, omegadist.residues, omegadist.sieve

#: (namespace, attribute, span name, kind).  Each public function is patched
#: where its callers look it up.
_PATCHES = [
    (_cli, "main", "cli.main", "main"),
    (_cli, "run_selftest", "cli.run_selftest", "plain"),
    (_sieve, "omega_block", "sieve.omega_block", "omega_block"),
    (_cli, "omega_block", "sieve.omega_block", "omega_block"),
    (_sieve, "primes_up_to", "sieve.primes_up_to", "table"),
    (_cli, "primes_up_to", "sieve.primes_up_to", "table"),
    (_dir, "primes_up_to", "sieve.primes_up_to", "table"),
    (_err, "iter_segments", "sieve.next", "stream"),
    (_race, "iter_segments", "sieve.next", "stream"),
    (_dir, "iter_segments", "sieve.next", "stream"),
    (_res, "iter_segments", "sieve.next", "stream"),
    (_res, "tally_segment", "residues.tally_segment", "plain"),
    (_cli, "tally_segment", "residues.tally_segment", "plain"),
    (_res, "sums_from_counts", "residues.transform", "plain"),
    (_cli, "sums_from_counts", "residues.transform", "plain"),
    (_res, "counts_from_sums", "residues.transform", "plain"),
    (_cli, "counts_from_sums", "residues.transform", "plain"),
    (_res, "inverse_residuals", "residues.transform", "residuals"),
    (_cli, "inverse_residuals", "residues.transform", "residuals"),
    (_cli, "record_many", "errorterms.record_many", "record_many"),
    (_cli, "growth_exponent", "errorterms.fit", "plain"),
    (_cli, "character_growth_exponent", "errorterms.fit", "plain"),
    (_cli, "all_pairs", "race.scan", "race"),
    (_cli, "race_scan", "race.scan", "race"),
    (_cli, "hall_rhs", "hall.hall_rhs", "plain"),
    (_dir, "truncated_L", "dirichlet.truncated_L", "plain"),
    (_dir, "euler_L", "dirichlet.euler", "plain"),
    (_dir, "euler_G", "dirichlet.euler", "plain"),
    (_dir, "zeta_ref", "dirichlet.zeta_ref", "plain"),
]

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "sieve.next_s": "s",
    "sieve.segments": "count",
    "sieve.integers": "count",
    "sieve.n_per_s": "1/s",
    "sieve.omega_block_s": "s",
    "sieve.primes_used": "count",
    "sieve.wait_s": "s",
    "sieve.pool_speedup": "ratio",
    "sieve.primes_up_to_s": "s",
    "residues.tally_segment_s": "s",
    "residues.transform_s": "s",
    "residues.inverse_residual_max": "1",
    "errorterms.record_many_self_s": "s",
    "errorterms.fit_s": "s",
    "errorterms.checkpoints": "count",
    "race.scan_self_s": "s",
    "race.pairs": "count",
    "race.events": "count",
    "hall.hall_rhs_s": "s",
    "hall.hall_rhs_calls": "count",
    "hall.table_bytes": "bytes",
    "dirichlet.truncated_L_self_s": "s",
    "dirichlet.euler_s": "s",
    "dirichlet.zeta_ref_s": "s",
    "cli.main_self_s": "s",
    "cli.selftest_self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the run-level ones)."""
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        self_time[span.name] += span.duration - span.child
        calls[span.name] += 1

    def attr_sum(name, key, keep=lambda span: True):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name and keep(s))

    yielded = [s for s in spans if s.name == "sieve.next" and "hi" in s.attrs]
    pooled = [s for s in spans if s.name == "sieve.next" and s.attrs["workers"] > 1]
    integers = sum(s.attrs["hi"] - s.attrs["lo"] for s in yielded)
    # Blocks sieved by pool workers run outside this process, so their prime
    # counts are computed here from the block bounds.
    pool_his = [s.attrs["hi"] for s in pooled if "hi" in s.attrs]
    pool_primes = 0
    if pool_his:
        primes = omegadist.sieve.primes_up_to(max(2, math.isqrt(max(pool_his) - 1))).primes
        roots = [math.isqrt(hi - 1) for hi in pool_his]
        pool_primes = int(np.searchsorted(primes, roots, side="right").sum())
    residuals = [s.attrs["residual"] for s in spans if "residual" in s.attrs]
    return {
        "sieve.next_s": total["sieve.next"],
        "sieve.segments": len(yielded),
        "sieve.integers": integers,
        "sieve.n_per_s": integers / total["sieve.next"] if total["sieve.next"] else 0.0,
        "sieve.omega_block_s": total["sieve.omega_block"],
        "sieve.primes_used": attr_sum("sieve.omega_block", "primes") + pool_primes,
        "sieve.wait_s": sum(s.duration for s in pooled),
        "sieve.primes_up_to_s": total["sieve.primes_up_to"],
        "residues.tally_segment_s": total["residues.tally_segment"],
        "residues.transform_s": total["residues.transform"],
        "residues.inverse_residual_max": max(residuals, default=0.0),
        "errorterms.record_many_self_s": self_time["errorterms.record_many"],
        "errorterms.fit_s": total["errorterms.fit"],
        "errorterms.checkpoints": attr_sum("errorterms.record_many", "checkpoints"),
        "race.scan_self_s": self_time["race.scan"],
        "race.pairs": attr_sum("race.scan", "pairs"),
        "race.events": attr_sum("race.scan", "events"),
        "hall.hall_rhs_s": total["hall.hall_rhs"],
        "hall.hall_rhs_calls": calls["hall.hall_rhs"],
        "hall.table_bytes": attr_sum("sieve.primes_up_to", "bytes", lambda s: s.op == "hall"),
        "dirichlet.truncated_L_self_s": self_time["dirichlet.truncated_L"],
        "dirichlet.euler_s": total["dirichlet.euler"],
        "dirichlet.zeta_ref_s": total["dirichlet.zeta_ref"],
        "cli.main_self_s": self_time["cli.main"],
        "cli.selftest_self_s": self_time["cli.run_selftest"],
        "cli.output_bytes": output_bytes,
    }
