"""CLI tests: known outputs parsed back, exit codes, format wiring,
worker-count determinism, and the selftest fault hook."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import omegadist
from omegadist import cli, sieve
from omegadist.cli import build_parser, main, run_selftest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_density_small_known_counts(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--m", "3", "--x-max", "20", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r["x"] for r in rows] == ["10"] * 3 + ["18"] * 3 + ["20"] * 3
    final = [r for r in rows if r["x"] == "20"]
    assert [r["count"] for r in final] == ["5", "9", "6"]
    assert [r["scaled_residual"] for r in final] == ["-5", "7", "-2"]
    assert float(final[0]["ratio"]) == pytest.approx(0.25)


def test_density_m1_single_class(capsys):
    code, out, _ = run_cli(capsys, "density", "--m", "1", "--x-max", "100")
    assert code == 0
    rows = parse_csv(out)
    assert all(r["ratio"] == "1" for r in rows)
    assert all(r["scaled_residual"] == "0" for r in rows)
    assert all(r["predicted_bound"] == "" for r in rows)  # no bound for m = 1


def test_density_json_document(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--m", "2", "--x-max", "50", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "density"
    assert doc["config"]["m"] == [2] and doc["config"]["x_max"] == 50
    assert all(set(r) >= {"m", "x", "j", "count", "ratio"} for r in doc["rows"])


def test_density_lf_line_endings(capsys):
    _, out, _ = run_cli(capsys, "density", "--m", "2", "--x-max", "15")
    assert "\r" not in out
    assert out.endswith("\n")


def test_hall_constants_row(capsys):
    code, out, _ = run_cli(capsys, "hall", "--m", "3", "--m", "2")
    assert code == 0
    rows = parse_csv(out)
    by_m = {r["m"]: r for r in rows}
    assert float(by_m["3"]["a_exponent"]) == pytest.approx(0.129754992650484, abs=1e-12)
    assert float(by_m["2"]["perimeter"]) == 4.0
    assert by_m["2"]["kind"] == "constants"


def test_hall_envelope_rows(capsys):
    code, out, _ = run_cli(capsys, "hall", "--m", "3", "--x-max", "1000")
    assert code == 0
    rows = parse_csv(out)
    envelope = [r for r in rows if r["kind"] == "envelope"]
    assert {r["k"] for r in envelope} == {"1", "2"}
    k1 = [float(r["hall_rhs"]) for r in envelope if r["k"] == "1"]
    assert all(a > b for a, b in zip(k1, k1[1:]))  # decaying in x


def test_hall_rejects_m1(capsys):
    code, _, err = run_cli(capsys, "hall", "--m", "1")
    assert code == 2
    assert "m >= 2" in err


def test_error_growth_fits_present(capsys):
    code, out, _ = run_cli(capsys, "error-growth", "--m", "3", "--x-max", "10000")
    assert code == 0
    rows = parse_csv(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"checkpoint", "class-fit", "character-fit"}
    class_fits = [r for r in rows if r["kind"] == "class-fit"]
    assert [r["index"] for r in class_fits] == ["0", "1", "2"]
    assert all(int(r["points_used"]) >= 5 for r in class_fits)


def test_error_growth_m1_has_no_fittable_signal(capsys):
    # Every residual is identically zero for m = 1: the fit must refuse
    # rather than fabricate an exponent.
    code, out, err = run_cli(capsys, "error-growth", "--m", "1", "--x-max", "10000")
    assert code == 1
    assert out == ""
    assert err == "omegadist: need at least 5 nonzero checkpoints, have 0\n"


def test_dirichlet_check_passes_at_defaults(capsys):
    code, out, _ = run_cli(
        capsys,
        "dirichlet-check", "--m", "3", "--m", "4",
        "--n-max", "100000", "--p-max", "10000",
    )
    assert code == 0
    rows = parse_csv(out)
    assert {r["check"] for r in rows} == {"lambda-quotient", "full-product", "g-product"}
    assert all(r["pass"] == "true" for r in rows)
    assert all(float(r["deviation"]) < 1e-3 for r in rows)


def test_dirichlet_check_fails_on_absurd_tolerance(capsys):
    code, out, _ = run_cli(
        capsys,
        "dirichlet-check", "--m", "3",
        "--n-max", "1000", "--p-max", "100", "--tolerance", "1e-18",
    )
    assert code == 1
    rows = parse_csv(out)
    assert any(r["pass"] == "false" for r in rows)


def test_dirichlet_check_rejects_bad_s(capsys):
    code, _, err = run_cli(capsys, "dirichlet-check", "--m", "3", "--s", "0.9")
    assert code == 2
    assert "s must be > 1" in err


@pytest.mark.parametrize(
    "flag, message",
    [("--s", "s must be > 1"), ("--tolerance", "tolerance must be > 0")],
    ids=["s", "tolerance"],
)
def test_dirichlet_check_rejects_nan_flag(capsys, flag, message):
    # NaN fails every comparison, so only a "not value > bound" check stops it.
    code, out, err = run_cli(capsys, "dirichlet-check", "--m", "3", flag, "nan")
    assert code == 2
    assert out == ""
    assert err == f"omegadist: {message}, got nan\n"


def test_dirichlet_check_rejects_infinite_s(capsys):
    # inf passes "not s > 1"; without a finiteness check every row was NaN.
    code, out, err = run_cli(
        capsys, "dirichlet-check", "--m", "3", "--s", "inf",
        "--n-max", "1000", "--p-max", "100",
    )
    assert code == 2
    assert out == ""
    assert err == "omegadist: s must be finite, got inf\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--m", "3", "--x-max", "100"],
        ["error-growth", "--m", "3", "--x-max", "100"],
        ["hall", "--m", "3", "--x-max", "100"],
    ],
    ids=["density", "error-growth", "hall"],
)
def test_infinite_ratio_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--ratio", "inf")
    assert code == 2
    assert out == ""
    assert err == "omegadist: ratio must be finite, got inf\n"


@pytest.mark.parametrize("command", ["density", "error-growth", "hall"])
def test_ratio_near_one_exits_2_promptly(command):
    # A schedule loop of ~2.3e9 steps used to run until killed; a child
    # process with a timeout turns such a hang into a failure.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [command, "--m", "3", "--x-max", "100", "--ratio", "1.000000001"]
    done = subprocess.run(
        [sys.executable, "-m", "omegadist.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("omegadist: ratio 1.000000001 gives ")
    assert done.stderr.count("\n") == 1


def test_race_events_csv(capsys):
    code, out, _ = run_cli(
        capsys, "race", "--m", "2", "--j", "0", "--jprime", "1", "--x-max", "10"
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["x"] == "3" and rows[0]["direction"] == "positive-to-negative"
    summary = rows[-1]
    assert summary["direction"] == "summary"
    assert (summary["lead_pos"], summary["lead_neg"], summary["lead_tie"]) == (
        "1", "5", "4"
    )
    assert summary["final_delta"] == "0"


def test_race_csv_rows_and_writer(capsys):
    code, out, _ = run_cli(capsys, "race", "--m", "2", "--x-max", "10")
    assert code == 0
    assert out == (
        "m,j,jprime,x,direction,lead_pos,lead_neg,lead_tie,final_delta\n"
        "2,0,1,3,positive-to-negative,,,,\n"
        "2,0,1,10,summary,1,5,4,0\n"
    )


def test_race_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "race", "--m", "2", "--x-max", "10", "--format", "json"
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert list(row) == [
        "m", "j", "jprime", "x_max", "lead_pos", "lead_neg", "lead_tie",
        "final_delta", "sign_changes", "events",
    ]
    assert row["sign_changes"] == 1
    assert row["events"] == [{"x": 3, "direction": "positive-to-negative"}]
    assert row["lead_pos"] + row["lead_neg"] + row["lead_tie"] == row["x_max"]


def test_race_all_pairs_json(capsys):
    code, out, _ = run_cli(
        capsys, "race", "--m", "3", "--x-max", "1000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 3  # pairs (0,1), (0,2), (1,2)
    for row in doc["rows"]:
        assert row["lead_pos"] + row["lead_neg"] + row["lead_tie"] == 1000
        assert row["sign_changes"] == len(row["events"])


_TOO_HIGH = str(2**64)
_TOO_HIGH_MESSAGE = f"x_max must be below 2**64, got {_TOO_HIGH}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["race", "--m", "3", "--x-max", _TOO_HIGH], _TOO_HIGH_MESSAGE),
        (["density", "--m", "3", "--x-max", _TOO_HIGH, "--workers", "2"], _TOO_HIGH_MESSAGE),
        (["error-growth", "--m", "3", "--x-max", _TOO_HIGH], _TOO_HIGH_MESSAGE),
        (["density", "--m", "0", "--x-max", "100"], "modulus must be >= 1, got 0"),
        (["dirichlet-check", "--m", "2", "--n-max", "0"], "n-max must be >= 1, got 0"),
        (["dirichlet-check", "--m", "2", "--p-max", "1"], "p-max must be >= 2, got 1"),
        (["selftest", "--x-limit", "99"], "x-limit must be >= 100, got 99"),
    ],
    ids=[
        "race-x-max-2^64", "density-x-max-2^64-workers", "error-growth-x-max-2^64",
        "density-m0", "dirichlet-n-max", "dirichlet-p-max", "selftest-x-limit",
    ],
)
def test_usage_error_exits_2_before_any_prime_table(capsys, monkeypatch, argv, message):
    # A regression would sieve a table to 2^32 (4 GiB) or start a pool;
    # here it fails the test instead.
    def never(*args, **kwargs):
        pytest.fail("a prime table was built or a process pool started")

    monkeypatch.setattr(sieve, "primes_up_to", never)
    monkeypatch.setattr(cli, "primes_up_to", never)
    monkeypatch.setattr(sieve, "ProcessPoolExecutor", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"omegadist: {message}\n"


def test_race_rejects_half_a_pair(capsys):
    code, _, err = run_cli(capsys, "race", "--m", "3", "--j", "1", "--x-max", "100")
    assert code == 2
    assert "together" in err


def test_race_rejects_equal_classes(capsys):
    code, _, err = run_cli(
        capsys, "race", "--m", "3", "--j", "1", "--jprime", "1", "--x-max", "100"
    )
    assert code == 2


def test_output_file_and_worker_determinism(tmp_path):
    base = tmp_path / "w1.csv"
    multi = tmp_path / "w3.csv"
    args = ["density", "--m", "3", "--m", "4", "--x-max", "100000",
            "--segment-size", "8192"]
    assert main(args + ["--workers", "1", "--output", str(base)]) == 0
    assert main(args + ["--workers", "3", "--output", str(multi)]) == 0
    assert base.read_bytes() == multi.read_bytes()
    assert b"\r" not in base.read_bytes()


def test_output_io_error(capsys):
    code, _, err = run_cli(
        capsys,
        "density", "--m", "2", "--x-max", "20",
        "--output", "/nonexistent-dir/out.csv",
    )
    assert code == 3
    assert "i/o" in err.lower()


def _die_in_worker(lo, hi, limit):
    os._exit(1)


def test_worker_crash_exits_4(capsys, monkeypatch):
    # Forked pool workers inherit the patched sieve and die on their first
    # block; the parent must report that as exit 4, not a traceback.
    monkeypatch.setattr(sieve, "_block_values", _die_in_worker)
    code, out, err = run_cli(
        capsys, "density", "--m", "3", "--x-max", "5000", "--workers", "2",
        "--segment-size", "1024",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("omegadist: sieve worker died")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (
            ["hall", "--m", "3", "--x-max", "100"],
            MemoryError("Unable to allocate 9.09 TiB for an array"),
            "Unable to allocate 9.09 TiB for an array",
        ),
        (["dirichlet-check", "--m", "3"], MemoryError(), "allocation failed"),
    ],
    ids=["hall", "dirichlet-check"],
)
def test_out_of_memory_exits_2(capsys, monkeypatch, argv, error, message):
    # A real allocation of that size must not be attempted here: with memory
    # overcommit it succeeds, and the OOM killer ends the test run instead.
    def fail(limit):
        raise error

    monkeypatch.setattr(cli, "primes_up_to", fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"omegadist: out of memory: {message}\n"


def test_readme_cli_examples_parse():
    block = README.read_text(encoding="utf-8").split("## Command-line interface")[1]
    lines = [
        line for line in block.split("```")[1].splitlines()
        if line.startswith("omegadist ")
    ]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_python_example_runs(capsys):
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(block.split("```")[0], {})
    assert capsys.readouterr().out


def test_public_names_resolve():
    names = omegadist.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(omegadist, name)] == []


def test_usage_error_on_tiny_segment_size(capsys):
    code, _, err = run_cli(
        capsys, "density", "--m", "2", "--x-max", "100", "--segment-size", "100"
    )
    assert code == 2
    assert "segment-size" in err


def test_usage_error_on_too_many_workers(capsys, monkeypatch):
    # The flag is refused before any worker process starts.
    def no_pool(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(sieve, "ProcessPoolExecutor", no_pool)
    code, out, err = run_cli(
        capsys, "density", "--m", "3", "--x-max", "5000", "--workers", "100000"
    )
    assert code == 2
    assert out == ""
    assert "workers" in err


def test_no_command_prints_usage(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_selftest_green_and_fault_injected(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "selftest", "--x-limit", "2000")
    assert code == 0
    assert all(r["passed"] == "true" for r in parse_csv(out))

    code, out, _ = run_cli(
        capsys, "selftest", "--x-limit", "2000", "--inject-fault"
    )
    assert code == 1
    rows = parse_csv(out)
    failed = [r for r in rows if r["passed"] == "false"]
    assert failed and failed[0]["name"] == "sieve-oracle-small"

    # A check that raises is a failed row, not a crashed selftest.
    def broken(s, n_max):
        raise RuntimeError("broken check")

    monkeypatch.setattr(cli, "check_lquo", broken)
    code, out, _ = run_cli(capsys, "selftest", "--x-limit", "2000")
    assert code == 1
    failed = [r for r in parse_csv(out) if r["passed"] == "false"]
    assert [r["name"] for r in failed] == ["lambda-quotient"]
    assert failed[0]["detail"].startswith("raised RuntimeError")


def test_run_selftest_structure():
    checks = run_selftest(x_limit=1000)
    assert {c["name"] for c in checks} == {
        "sieve-oracle-small",
        "sieve-oracle-large",
        "transform-roundtrip",
        "residual-sum-zero",
        "lambda-quotient",
        "euler-products",
    }
    assert all(c["passed"] for c in checks)


def test_selftest_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--x-limit", "1000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "selftest"
    assert all({"name", "passed", "detail"} <= set(r) for r in doc["rows"])


def test_reals_rendered_at_15_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "hall", "--m", "3")
    row = parse_csv(out)[0]
    # .15g keeps at most 15 significant digits; the perimeter value's full
    # repr is 5.196152422706632 (16 digits), so the tail must be trimmed.
    assert row["perimeter"] == "5.19615242270663"
