"""Tests of the benchmark itself.  Every workload runs at the tiny scale.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import omegadist.cli  # noqa: E402
import omegadist.sieve  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

NAMES = list(workloads.WHY)


def tiny(name: str, trace: bool = False, seed: int = 7) -> dict:
    return run.run_workload(name, seed, 0, trace, scale="tiny", probes=False)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_passes_the_gate(name):
    record = tiny(name)
    assert record["attempted"] > 0
    assert record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == set(run.END_TO_END_UNITS)
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        assert record["metrics"][key]["value"] > 0
    assert len(record["samples"]["wall_s"]) >= run.MIN_PASSES
    workload = workloads.make_workload(name, 7, "tiny")
    assert len(record["samples"]["yardstick_s"]) == workload.steps * len(record["samples"]["wall_s"])
    factor = record["speed_factor"]["passes"]
    assert record["metrics"]["wall_s"]["value"] * factor == pytest.approx(
        sum(record["samples"]["wall_s"]) / len(record["samples"]["wall_s"]))
    assert record["provenance"]["seed"] == 7


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    record = tiny(name, trace=True)
    assert record["failed"] == 0, record["failures"]
    metrics = {key: metric["value"] for key, metric in record["metrics"].items()}
    assert set(metrics) == set(spans.LAYER_UNITS)
    expected_positive = {
        "pipeline-1e7": ["sieve.next_s", "hall.hall_rhs_calls", "hall.table_bytes",
                         "dirichlet.truncated_L_self_s", "dirichlet.euler_s",
                         "errorterms.checkpoints", "race.pairs", "residues.transform_s",
                         "cli.main_self_s", "cli.output_bytes"],
        "sweep-1e8-w2": ["sieve.wait_s", "sieve.pool_speedup", "sieve.primes_used",
                         "errorterms.record_many_self_s"],
        "window-1e12": ["sieve.omega_block_s", "sieve.primes_up_to_s",
                        "residues.tally_segment_s", "residues.transform_s"],
    }[name]
    for key in expected_positive:
        assert metrics[key] > 0, key
    assert metrics["residues.inverse_residual_max"] < 1e-6
    if name == "pipeline-1e7":
        assert metrics["race.pairs"] == 3  # race --m 3
    if name != "sweep-1e8-w2":
        assert metrics["sieve.wait_s"] == 0


def test_sweep_output_does_not_depend_on_workers():
    digests = workloads.load_digests()
    for scale in workloads.SIZES:
        sweep = workloads.make_workload("sweep-1e8-w2", 0, scale)
        pooled, serial = sweep.ops[0], sweep.serial_ops[0]
        assert digests[workloads.argv_key(pooled)] == digests[workloads.argv_key(serial)]


def test_corrupted_digest_raises_fail_ratio(monkeypatch):
    pinned = workloads.load_digests()
    key = workloads.argv_key(workloads.make_workload("sweep-1e8-w2", 0, "tiny").ops[0])
    pinned[key] = dict(pinned[key], sha256="0" * 64)
    monkeypatch.setattr(workloads, "load_digests", lambda: pinned)
    record = tiny("sweep-1e8-w2")
    assert record["failed"] == record["attempted"] > 0
    assert json.loads(run.result_line(record))["correct"] is False


def test_flipped_omega_value_in_window_raises_fail_ratio(monkeypatch):
    window = workloads.make_workload("window-1e12", 7, "tiny")
    target = window.lo + int(window.positions[0])
    original = omegadist.sieve.omega_block

    def flipped(lo, hi, table):
        segment = original(lo, hi, table)
        if lo <= target < hi:
            segment.values[target - lo] ^= 1
        return segment

    monkeypatch.setattr(omegadist.sieve, "omega_block", flipped)
    record = tiny("window-1e12")
    assert record["failed"] > 0
    assert any(str(target) in text for text in record["failures"])


def test_raising_operation_fails_without_ending_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("worker crashed")

    monkeypatch.setattr(omegadist.cli, "all_pairs", broken)
    record = tiny("pipeline-1e7")
    passes = len(record["samples"]["wall_s"]) + 1  # the warm-up pass is checked too
    assert record["attempted"] == 6 * passes
    assert record["failed"] == passes  # only the race operation


def test_invariants_catch_a_wrong_count():
    argv = workloads.make_workload("pipeline-1e7", 0, "tiny").ops[0]
    code, text = workloads.run_cli(argv)
    assert code == 0 and workloads.invariant_problems("density", text) == []
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[3] = str(int(cells[3]) + 1)
    broken = "\n".join([header, ",".join(cells), *rest]) + "\n"
    assert workloads.invariant_problems("density", broken)


def test_setup_probe_measures_a_fresh_interpreter():
    samples = run.measure_setup("sweep-1e8-w2", 1, "tiny")
    assert len(samples["setup_s"]) == run.SETUP_PROBES and min(samples["setup_s"]) > 0
    assert len(samples["setup_yardstick_s"]) == run.SETUP_PROBES + 1


def test_speed_factor_is_one_at_nominal_speed():
    nominal = yardstick.Yardstick.NOMINAL_S
    slow = {name: 1.5 * seconds for name, seconds in nominal.items()}
    assert yardstick.speed_factor([nominal, nominal], ["sieve", "python"]) == pytest.approx(1.0)
    assert yardstick.speed_factor([nominal, slow], ["stream"]) == pytest.approx(1.25)


def test_yardstick_does_not_use_the_program():
    """A change to omegadist must not be able to move the yardstick."""
    kernels = ", ".join(repr(name) for name in yardstick.Yardstick.NOMINAL_S)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, yardstick; "
         f"yardstick.Yardstick().measure([{kernels}], 0); "
         "print(sorted(m for m in sys.modules if m.startswith('omegadist')))"],
        cwd=BENCH, capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-1e8-w2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
