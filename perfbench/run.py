"""omegadist benchmark: one workload per invocation, or all of them.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload window-1e12 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32 --trace 1

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of the traced
run.  See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from yardstick import Yardstick, speed_factor  # noqa: E402

#: A run always makes at least this many timed untraced passes, however
#: short --seconds is, so the mean and median have something to go on.
MIN_PASSES = 3

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

#: Yardstick kernel that scales setup_s, which is mostly process start-up
#: and imports.
SETUP_KERNELS = ("startup",)

#: Nominal yardstick seconds per pass, split over a tick after each of its
#: steps, and per tick between set-ups.  A pass takes 3-5 s, so about a
#: quarter of a run goes to the yardstick: enough for it to see the same
#: share of slow and fast host phases as the passes see.  A set-up takes
#: about 0.5 s.
PASS_TICK_S = 1.5
SETUP_TICK_S = 0.5

#: A tail percentile is reported only with at least this many samples.
TAIL_MIN_SAMPLES = 20

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def cpu_seconds() -> float:
    """User plus system time of this process and of every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, when there are
    enough samples for it to mean anything."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def provenance(workload, seed: int, scale: str) -> dict:
    import numpy as np
    from omegadist import sieve

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "segment_size": sieve.DEFAULT_SEGMENT_SIZE,
        "workers": workload.workers,
        "seed": seed,
        "scale": scale,
    }


def make_prepared(name: str, seed: int, scale: str):
    """Import, build the workload, do its pre-timing set-up and a warm-up
    pass at the tiny scale.  setup_s times exactly this in a fresh process."""
    from workloads import make_workload

    workload = make_workload(name, seed, scale)
    workload.prepare()
    warm = make_workload(name, seed, "tiny")
    warm.prepare()
    warm.run_pass()
    return workload


def measure_setup(name: str, seed: int, scale: str) -> dict:
    """Fresh-interpreter set-ups, with the yardstick timed before each and
    after the last."""
    yard = Yardstick()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed), "--scale", scale]
    samples, ticks = [], [yard.measure(SETUP_KERNELS, SETUP_TICK_S)]
    for _ in range(SETUP_PROBES):
        # No timeout: with one, subprocess polls for the exit in steps of up
        # to 50 ms, which would quantize the measurement.
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        ticks.append(yard.measure(SETUP_KERNELS, SETUP_TICK_S))
    return {"setup_s": samples, "setup_yardstick_s": ticks}


def timed_pass(workload, tracer=None, tick=None):
    """One pass with wall and CPU time; the tracer, if any, is installed.
    `tick`, if given, runs after each step of the pass, and its time is left
    out of both."""
    paused = [0.0, 0.0]

    def between():
        cpu0, start = cpu_seconds(), time.perf_counter()
        tick()
        paused[0] += time.perf_counter() - start
        paused[1] += cpu_seconds() - cpu0

    cpu0 = cpu_seconds()
    start = time.perf_counter()
    if tracer is None:
        out = workload.run_pass(between=between if tick else None)
    else:
        with tracer.installed():
            out = workload.run_pass()
    wall = time.perf_counter() - start - paused[0]
    return out, wall, cpu_seconds() - cpu0 - paused[1]


def peak_rss_mb(workload) -> float:
    """Peak resident set so far: this process, plus for a pool `workers`
    times the largest reaped child, since the pool has that many alive at
    once.  Pages shared after fork count once per process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pool = workload.workers if workload.workers > 1 else 0
    return (own + pool * kids) / 1024.0


def run_untraced(workload, kernels, seconds: float, gate) -> dict:
    """A checked warm-up pass, then timed passes with a yardstick tick after
    each of their steps, so that passes and yardstick see the same phases
    of the host."""
    workload.check_pass(workload.run_pass(), gate)
    # Read before the yardstick allocates anything, so its arrays never
    # count as the program's memory.
    peak = peak_rss_mb(workload)
    yard = Yardstick()
    walls, cpus, op_walls, cycles, ticks = [], [], {}, [], []
    tick_s = PASS_TICK_S / workload.steps

    def tick():
        ticks.append(yard.measure(kernels, tick_s))

    start = time.perf_counter()
    # Stop before a pass, its ticks and its check of typical length would
    # end past `seconds`.
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        out, wall, cpu = timed_pass(workload, tick=tick)
        walls.append(wall)
        cpus.append(cpu)
        for op, op_wall in workload.op_walls(out).items():
            op_walls.setdefault(op, []).append(op_wall)
        workload.check_pass(out, gate)
        cycles.append(time.perf_counter() - cycle_start)
    return {"wall_s": walls, "cpu_s": cpus, "op_wall_s": op_walls, "yardstick_s": ticks,
            "peak_rss_mb": peak}


def run_traced(workload, seconds: float, gate) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer medians of the traced
    ones, tracing overhead as the difference of the wall medians."""
    from spans import Tracer, layer_metrics

    extra = {}
    start = time.perf_counter()
    # The pre-timing set-up runs once more, traced, so a prime table built
    # there still counts towards sieve.primes_up_to_s.
    setup_tracer = Tracer()
    with setup_tracer.installed():
        workload.prepare()
    setup_layers = layer_metrics(setup_tracer.spans, 0)
    serial_ops = getattr(workload, "serial_ops", None)
    if serial_ops:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        serial_out = workload.run_pass(serial_ops)
        extra["serial_wall_s"] = time.perf_counter() - t0
        extra["serial_cpu_s"] = cpu_seconds() - cpu0
        workload.check_pass(serial_out, gate)
    untraced, traced, layers = [], [], []
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        out, wall, _ = timed_pass(workload)
        untraced.append(wall)
        workload.check_pass(out, gate)
        tracer = Tracer()
        out, wall, _ = timed_pass(workload, tracer)
        traced.append(wall)
        workload.check_pass(out, gate)
        layers.append(layer_metrics(tracer.spans, workload.output_bytes(out)))
    metrics = {key: statistics.median(row[key] for row in layers) for key in layers[0]}
    metrics["sieve.primes_up_to_s"] += setup_layers["sieve.primes_up_to_s"]
    untraced_wall = statistics.median(untraced)
    metrics["sieve.pool_speedup"] = (
        extra["serial_wall_s"] / untraced_wall if serial_ops else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - untraced_wall
    samples = {"untraced_wall_s": untraced, "traced_wall_s": traced, **extra}
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", probes: bool = True) -> dict:
    """Everything one invocation does for one workload; returns the record."""
    from spans import LAYER_UNITS
    from workloads import KERNELS, Gate

    workload = make_prepared(name, seed, scale)
    gate = Gate()
    record = {"workload": name, "seed": seed, "trace": int(trace), "scale": scale}
    if trace:
        values, samples = run_traced(workload, seconds, gate)
        units = LAYER_UNITS
    else:
        samples = run_untraced(workload, KERNELS[name], seconds, gate)
        if probes:
            samples.update(measure_setup(name, seed, scale))
        else:
            samples.update(setup_s=[0.0], setup_yardstick_s=[Yardstick.NOMINAL_S])
        # Times are scaled to a host at nominal speed; the raw samples and
        # the factors stay in the record.  Pass times are means, to match the
        # mean that speed_factor takes.
        factor = speed_factor(samples["yardstick_s"], KERNELS[name])
        setup_factor = speed_factor(samples["setup_yardstick_s"], SETUP_KERNELS)
        record["speed_factor"] = {"passes": factor, "setup": setup_factor}
        values = {
            "wall_s": statistics.fmean(samples["wall_s"]) / factor,
            "cpu_s": statistics.fmean(samples["cpu_s"]) / factor,
            "peak_rss_mb": samples["peak_rss_mb"],
            "setup_s": statistics.median(samples["setup_s"]) / setup_factor,
        }
        units = END_TO_END_UNITS
        tail = tail_percentile(samples["wall_s"])
        if tail is not None:
            record["wall_tail"] = {"percentile": tail[0], "value_s": tail[1]}
    record.update(
        provenance=provenance(workload, seed, scale),
        samples=samples,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        metrics={key: {"value": values[key], "unit": units[key]} for key in units},
    )
    return record


def summary_lines(record: dict) -> list[str]:
    lines = [f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}"
             f"  scale {record['scale']}",
             "provenance " + json.dumps(record["provenance"], sort_keys=True)]
    metrics = record["metrics"]
    if record["trace"]:
        wall = statistics.median(record["samples"]["traced_wall_s"])
        for key, metric in metrics.items():
            share = ""
            if metric["unit"] == "s" and key != "trace.overhead_s" and wall > 0:
                share = f"  {100.0 * metric['value'] / wall:5.1f}% of traced wall"
            lines.append(f"{key:32s} {metric['value']:>16.6g} {metric['unit']}{share}")
    else:
        n = len(record["samples"]["wall_s"])
        tail = record.get("wall_tail")
        tail_text = (f"p{tail['percentile']:.0f} {tail['value_s']:.4f} s" if tail
                     else f"no tail percentile below {TAIL_MIN_SAMPLES} samples")
        factor = record["speed_factor"]
        raw = {key: statistics.median(record["samples"][key])
               for key in ("wall_s", "cpu_s", "setup_s")}
        mean = {key: statistics.fmean(record["samples"][key]) for key in ("wall_s", "cpu_s")}
        notes = {
            "wall_s": f"mean of {n} passes {mean['wall_s']:.4f} s / host factor "
                      f"{factor['passes']:.3f}; raw median {raw['wall_s']:.4f} s, {tail_text}",
            "cpu_s": f"mean of {n} passes {mean['cpu_s']:.4f} s / host factor "
                     f"{factor['passes']:.3f}, pool children included",
            "peak_rss_mb": "parent peak plus workers x largest child peak",
            "setup_s": f"median of {len(record['samples']['setup_s'])} fresh-interpreter "
                       f"set-ups, raw {raw['setup_s']:.4f} s / host factor {factor['setup']:.3f}",
        }
        for key, metric in metrics.items():
            lines.append(f"{key:12s} {metric['value']:12.4f} {metric['unit']:3s}  {notes[key]}")
        for op, op_walls in record["samples"]["op_wall_s"].items():
            lines.append(f"  {op:18s} {statistics.median(op_walls):10.4f} s    median wall of the subcommand")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"{'fail_ratio':12s} {failed / attempted if attempted else 1.0:12.4f} 1    "
                 f"  {failed} of {attempted} operations failed")
    lines += [f"FAIL {text}" for text in record["failures"]]
    return lines


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def write_record(path: str, record) -> None:
    """'-' prints the record as one line; anything else is a file path."""
    if path == "-":
        print(json.dumps(record))
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(record, indent=1) + "\n")


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS and CPU stay apart."""
    from workloads import WHY

    records = []
    for name in WHY:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--record", "-"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"omegadist benchmark: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-2]), flush=True)
        records.append(json.loads(lines[-2]))
    if args.record:
        write_record(args.record, records)
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}.{key}": metric
                    for r in records for key, metric in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="pipeline-1e7, sweep-1e8-w2, window-1e12 or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload in seconds, as a smoke test")
    parser.add_argument("--record", metavar="PATH",
                        help="also write the full record(s) as JSON ('-': stdout, "
                        "just before the result line)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import omegadist.cli  # noqa: F401  -- fail early when src/ is missing
    except ImportError as exc:
        print(f"omegadist benchmark: cannot import omegadist from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WHY

    if args.workload not in (*WHY, "all"):
        print(f"omegadist benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make_prepared(args.workload, args.seed, args.scale)
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    print("\n".join(summary_lines(record)))
    if args.record:
        write_record(args.record, record)
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
