"""The benchmark's tracer (perfbench/spans.py) against the names it patches.

The tracer looks up the functions it wraps with getattr and unpacks some of
their arguments, so renaming one of them, or changing how the CLI calls it,
breaks the benchmark's traced run without failing any other test here.
"""

import importlib.util
import pathlib

import pytest

import omegadist.cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

ARGVS = [
    ["density", "--m", "3", "--x-max", "2000"],
    ["density", "--m", "3", "--x-max", "2000", "--workers", "2"],
    ["error-growth", "--m", "3", "--x-max", "2000"],
    ["race", "--m", "3", "--x-max", "2000"],
    ["hall", "--m", "3", "--x-max", "2000"],
    ["dirichlet-check", "--m", "3", "--n-max", "100", "--p-max", "2000"],
    ["selftest", "--x-limit", "1000"],
]


@pytest.fixture(scope="module")
def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subcommands_run_under_the_benchmark_tracer(spans_module, capsys):
    tracer = spans_module.Tracer()
    with tracer.installed():
        codes = [omegadist.cli.main(argv) for argv in ARGVS]
    capsys.readouterr()
    assert codes == [0] * len(ARGVS)
    assert {span.op for span in tracer.spans if span.name == "cli.main"} == {
        argv[0] for argv in ARGVS
    }
    metrics = spans_module.layer_metrics(tracer.spans, 0)
    assert metrics["sieve.segments"] > 0 and metrics["sieve.primes_used"] > 0
    assert metrics["errorterms.checkpoints"] > 0 and metrics["race.pairs"] == 3
    # Every patched name is restored on exit.
    assert not hasattr(omegadist.cli.main, "__wrapped__")
