"""Command-line front end.

Subcommands: density, hall, error-growth, dirichlet-check, race, selftest.
Output goes to stdout or --output as CSV (RFC 4180, LF line endings) or as a
single JSON document {"command", "config", "rows"}.  Reals are rendered with
15 significant digits.  Output is byte-identical for identical flags
regardless of --workers.

Exit codes: 0 success, 1 tolerance or self-check failure, or too few
nonzero checkpoints for an error-growth fit (always so at m = 1), 2 usage
error (including a NaN flag value, a ratio that is not finite and above 1,
with or without hall's x-max, an x_max of 2**64 or more, a hall x-max or
dirichlet-check p-max of 2**32 or more, a dirichlet-check s whose 2*s,
m*s or s*log n overflows, a race modulus above 64, a selftest x-limit
above 2**24, and a run too large to fit in memory), 3 I/O error, 4 a sieve
worker process died.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .dirichlet import (
    DEFAULT_ZETA_TERMS,
    check_g_product,
    check_identity_product,
    check_lquo,
)
from .errorterms import (
    DEFAULT_RATIO,
    CheckpointSeries,
    InsufficientDataError,
    character_growth_exponent,
    checkpoint_schedule,
    growth_exponent,
    record_many,
    scaled_residuals,
)
from .hall import hall_constants, hall_rhs, predicted_bound
from .race import all_pairs, race_scan
from .residues import (
    counts_from_sums,
    inverse_residuals,
    new_tally,
    sums_from_counts,
    tally_segment,
)
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_SEGMENT_SIZE,
    MAX_WORKERS,
    _omega_trial_block,
    _omega_trial_division,
    iter_segments,
    omega_block,
    primes_up_to,
)


def _fmt_real(value: float) -> str:
    return format(value, ".15g")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def _jsonify(value):
    """Round reals to 15 significant digits and strip numpy scalar types."""
    if isinstance(value, dict):
        return {key: _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(_fmt_real(float(value)))
    return value


def _emit(args, columns: list[str], rows: list[dict], json_rows: list | None = None) -> None:
    """Render rows as CSV, or as one JSON document whose config echoes the
    parsed flags other than --format and --output."""
    if args.format == "json":
        config = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "format", "output", "handler")
        }
        payload = {
            "command": args.command,
            "config": _jsonify(config),
            "rows": _jsonify(
                json_rows
                if json_rows is not None
                else [{column: row.get(column) for column in columns} for row in rows]
            ),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(column)) for column in columns])
        text = buffer.getvalue()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _moduli(args) -> list[int]:
    """Deduplicate args.m in place, so the echoed config matches the rows."""
    args.m = list(dict.fromkeys(args.m))
    for m in args.m:
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
    return args.m


def _check_stream_flags(args) -> None:
    if not 1024 <= args.segment_size <= MAX_SEGMENT_SIZE:
        raise ValueError(
            f"segment-size must be in 1024..{MAX_SEGMENT_SIZE}, got {args.segment_size}"
        )


# ---------------------------------------------------------------- commands


def _record(args):
    """The checkpoint series that density and error-growth both report."""
    moduli = _moduli(args)
    _check_stream_flags(args)
    return moduli, record_many(
        moduli, args.x_max, args.ratio, segment_size=args.segment_size, workers=args.workers
    )


def cmd_density(args) -> int:
    """Class counts, densities, scaled residuals and the growth envelope at
    geometric checkpoints."""
    moduli, series = _record(args)
    rows = []
    for m in moduli:
        s = series[m]
        points = zip(s.checkpoints.tolist(), s.counts.tolist(), scaled_residuals(s).tolist())
        for x, count, residual in points:
            bound = predicted_bound(m, x) if m >= 2 else None
            for j in range(m):
                rows.append(
                    {
                        "m": m,
                        "x": x,
                        "j": j,
                        "count": count[j],
                        "ratio": count[j] / x,
                        "scaled_residual": residual[j],
                        "predicted_bound": bound,
                    }
                )
    columns = ["m", "x", "j", "count", "ratio", "scaled_residual", "predicted_bound"]
    _emit(args, columns, rows)
    return 0


def cmd_hall(args) -> int:
    """Hull perimeter, the constant c and the exponent A per modulus, plus
    the per-character decay envelope when --x-max is given."""
    moduli = _moduli(args)
    rows = []
    for m in moduli:
        constants = hall_constants(m)
        rows.append(
            {
                "kind": "constants",
                "m": m,
                "perimeter": constants.perimeter,
                "c": constants.c,
                "a_exponent": constants.a_exponent,
            }
        )
    if args.x_max is None:
        checkpoint_schedule(10, args.ratio)  # checks the ratio, as with --x-max
    else:
        if args.x_max >= 1 << 32:
            raise ValueError(f"x-max must be below 2**32, got {args.x_max}")
        schedule = checkpoint_schedule(args.x_max, args.ratio)
        table = primes_up_to(args.x_max)
        for m in moduli:
            for k in range(1, m):
                for x in schedule:
                    rows.append(
                        {
                            "kind": "envelope",
                            "m": m,
                            "k": k,
                            "x": x,
                            "hall_rhs": hall_rhs(m, k, x, table),
                        }
                    )
    columns = ["kind", "m", "perimeter", "c", "a_exponent", "k", "x", "hall_rhs"]
    _emit(args, columns, rows)
    return 0


def cmd_error_growth(args) -> int:
    """Checkpoint residuals plus fitted growth exponents, per class and per
    character."""
    moduli, series = _record(args)
    rows = []
    for m in moduli:
        s = series[m]
        for x, residual in zip(s.checkpoints.tolist(), scaled_residuals(s).tolist()):
            for j in range(m):
                rows.append(
                    {
                        "kind": "checkpoint",
                        "m": m,
                        "x": x,
                        "j": j,
                        "scaled_residual": residual[j],
                    }
                )
        fits = [("class-fit", growth_exponent(series[m], j)) for j in range(m)]
        fits += [
            ("character-fit", character_growth_exponent(series[m], k)) for k in range(1, m)
        ]
        for kind, fit in fits:
            rows.append(
                {
                    "kind": kind,
                    "m": m,
                    "index": fit.index,
                    "alpha_hat": fit.alpha_hat,
                    "points_used": fit.points_used,
                    "residual_rms": fit.residual_rms,
                }
            )
    columns = [
        "kind",
        "m",
        "x",
        "j",
        "scaled_residual",
        "index",
        "alpha_hat",
        "points_used",
        "residual_rms",
    ]
    _emit(args, columns, rows)
    return 0


def cmd_dirichlet_check(args) -> int:
    """Numeric identity checks; exits 1 unless every deviation is within
    tolerance."""
    moduli = _moduli(args)
    if not args.s > 1.0:
        raise ValueError(f"s must be > 1, got {args.s}")
    if math.isinf(args.s):
        raise ValueError(f"s must be finite, got {args.s}")
    scale = max(2, *moduli)  # the identities evaluate zeta(2s) and zeta(m*s)
    if math.isinf(scale * args.s):
        raise ValueError(f"s must keep {scale}*s finite, got {args.s}")
    # Every term is n^(-t) with t <= scale*s and n <= top; where t*log(n)
    # overflows, numpy's complex power warns instead of underflowing to 0.
    top = max(args.n_max, args.p_max, DEFAULT_ZETA_TERMS)
    if math.isinf(scale * args.s * math.log(top)):
        raise ValueError(f"s must keep {scale}*s*log({top}) finite, got {args.s}")
    if args.n_max < 1:
        raise ValueError(f"n-max must be >= 1, got {args.n_max}")
    if args.n_max >= 1 << 64:
        raise ValueError(f"n-max must be below 2**64, got {args.n_max}")
    if args.p_max < 2:
        raise ValueError(f"p-max must be >= 2, got {args.p_max}")
    if args.p_max >= 1 << 32:
        raise ValueError(f"p-max must be below 2**32, got {args.p_max}")
    if not args.tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {args.tolerance}")
    reports = [(2, args.n_max, None, check_lquo(args.s, args.n_max))]
    for m in moduli:
        reports.append((m, None, args.p_max, check_identity_product(m, args.s, args.p_max)))
        if m >= 2:
            reports.append((m, None, args.p_max, check_g_product(m, args.s, args.p_max)))
    rows = []
    all_pass = True
    for m, n_max, p_max, report in reports:
        passed = report.deviation <= args.tolerance
        all_pass = all_pass and passed
        rows.append(
            {
                "check": report.check,
                "m": m,
                "s": args.s,
                "n_max": n_max,
                "p_max": p_max,
                "lhs_re": report.lhs.real,
                "lhs_im": report.lhs.imag,
                "rhs_re": report.rhs.real,
                "rhs_im": report.rhs.imag,
                "deviation": report.deviation,
                "pass": passed,
            }
        )
    columns = [
        "check",
        "m",
        "s",
        "n_max",
        "p_max",
        "lhs_re",
        "lhs_im",
        "rhs_re",
        "rhs_im",
        "deviation",
        "pass",
    ]
    _emit(args, columns, rows)
    return 0 if all_pass else 1


def cmd_race(args) -> int:
    """Sign changes and lead statistics for one pair or all pairs."""
    _check_stream_flags(args)
    if (args.j is None) != (args.jprime is None):
        raise ValueError("--j and --jprime must be given together")
    if args.j is not None:
        summaries = [
            race_scan(
                args.m,
                args.j,
                args.jprime,
                args.x_max,
                segment_size=args.segment_size,
                workers=args.workers,
            )
        ]
    else:
        summaries = all_pairs(
            args.m,
            args.x_max,
            segment_size=args.segment_size,
            workers=args.workers,
        )
    # CSV: a row per sign change, then a summary row at x = x_max.  JSON:
    # one row per pair, with the sign changes nested under "events".
    rows, json_rows = [], []
    for summary in summaries:
        pair = {"m": summary.m, "j": summary.j, "jprime": summary.jprime}
        events = [{"x": e.x, "direction": e.direction} for e in summary.events]
        leads = {
            "lead_pos": summary.lead_pos,
            "lead_neg": summary.lead_neg,
            "lead_tie": summary.lead_tie,
            "final_delta": summary.final_delta,
        }
        rows += [{**pair, **event} for event in events]
        rows.append({**pair, "x": summary.x_max, "direction": "summary", **leads})
        json_rows.append(
            {**pair, "x_max": summary.x_max, **leads,
             "sign_changes": len(events), "events": events}
        )
    columns = [
        "m",
        "j",
        "jprime",
        "x",
        "direction",
        "lead_pos",
        "lead_neg",
        "lead_tie",
        "final_delta",
    ]
    _emit(args, columns, rows, json_rows)
    return 0


# ---------------------------------------------------------------- selftest


def run_selftest(x_limit: int = 100_000, inject_fault: bool = False) -> list[dict]:
    """Reduced-scale end-to-end checks; each entry reports name/passed/detail.

    inject_fault corrupts one sieved Omega value before the checks run, as a
    negative test that the oracle comparison actually detects corruption.
    """
    if x_limit < 100:
        raise ValueError(f"x-limit must be >= 100, got {x_limit}")
    # 1..x_limit is sieved as one block and trial-divided.
    if x_limit > MAX_SEGMENT_SIZE:
        raise ValueError(f"x-limit must be at most {MAX_SEGMENT_SIZE}, got {x_limit}")
    checks: list[dict] = []

    def run(name: str, body) -> None:
        try:
            passed, detail = body()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": passed, "detail": detail})

    n_small = x_limit
    segment = next(iter_segments(n_small, segment_size=n_small))
    if inject_fault:
        # Before the first tally, while the segment's values may still change.
        segment.values[n_small // 2] ^= 1

    def oracle_small():
        expected = _omega_trial_block(1, n_small + 1)
        mismatches = np.flatnonzero(expected != segment.values)
        if len(mismatches):
            return False, f"mismatch at n = {mismatches[0] + 1}"
        return True, f"all n <= {n_small} match trial division"

    def oracle_large():
        lo = 10**9
        block = omega_block(lo, lo + 10_000, primes_up_to(math.isqrt(lo + 10_000)))
        offsets = np.random.default_rng(1729).integers(0, 10_000, size=100)
        expected = _omega_trial_division(lo + offsets)
        mismatches = np.flatnonzero(expected != block.values[offsets])
        if len(mismatches):
            return False, f"mismatch at n = {lo + offsets[mismatches[0]]}"
        return True, "100 sampled values near 1e9 match trial division"

    def roundtrip():
        worst = 0.0
        for m in range(1, 13):
            tally = tally_segment(new_tally(m), segment)
            sums = sums_from_counts(tally)
            if abs(sums[0] - tally.x) != 0.0:
                return False, f"sums[0] != x at m = {m}"
            recovered = counts_from_sums(sums)
            if not np.array_equal(recovered.counts, tally.counts):
                return False, f"roundtrip mismatch at m = {m}"
            residual = max(inverse_residuals(sums))
            worst = max(worst, residual)
        return True, f"m = 1..12 exact, worst pre-rounding residual {worst:.3e}"

    def remark_identity():
        for m in (2, 3, 5, 12):
            tally = tally_segment(new_tally(m), segment)
            block = CheckpointSeries(m, np.array([tally.x]), tally.counts[None])
            if int(scaled_residuals(block).sum()) != 0:
                return False, f"scaled residuals do not sum to zero at m = {m}"
        return True, "scaled residuals sum to zero for m in {2, 3, 5, 12}"

    def lquo_identity():
        report = check_lquo(2.0, min(n_small, 10_000))
        return report.deviation < 1e-3, f"deviation {report.deviation:.3e}"

    def euler_identities():
        full = check_identity_product(3, 2.0, 10_000)
        regular = check_g_product(3, 2.0, 10_000)
        worst = max(full.deviation, regular.deviation)
        return worst < 1e-5, f"worst deviation {worst:.3e}"

    run("sieve-oracle-small", oracle_small)
    run("sieve-oracle-large", oracle_large)
    run("transform-roundtrip", roundtrip)
    run("residual-sum-zero", remark_identity)
    run("lambda-quotient", lquo_identity)
    run("euler-products", euler_identities)
    return checks


def cmd_selftest(args) -> int:
    checks = run_selftest(x_limit=args.x_limit, inject_fault=args.inject_fault)
    _emit(args, ["name", "passed", "detail"], checks)
    return 0 if all(check["passed"] for check in checks) else 1


# ---------------------------------------------------------------- parser


def _add_output_flags(parser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--output", default="-", metavar="PATH", help="output file ('-' = stdout)"
    )


def _add_stream_flags(parser) -> None:
    parser.add_argument(
        "--segment-size",
        type=int,
        default=DEFAULT_SEGMENT_SIZE,
        metavar="N",
        help="sieve block length, 1024 to 2^24 (default: 2^20)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=f"sieve processes, 1 to {MAX_WORKERS} (default: 1)",
    )


def _add_moduli_flag(parser) -> None:
    parser.add_argument(
        "--m",
        action="append",
        type=int,
        required=True,
        metavar="M",
        help="modulus (repeatable)",
    )


def _add_ratio_flag(parser) -> None:
    parser.add_argument(
        "--ratio",
        type=float,
        default=DEFAULT_RATIO,
        metavar="R",
        help="checkpoint spacing (default: 10^(1/4))",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegadist",
        description="Distribution of Omega(n) over residue classes: exact "
        "tallies, character sums, decay envelopes, series identities and "
        "class races.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "density", help="class counts, densities and residuals at checkpoints"
    )
    _add_moduli_flag(p)
    p.add_argument("--x-max", type=int, required=True, metavar="X", help="scan limit (>= 10)")
    _add_ratio_flag(p)
    _add_stream_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_density)

    p = sub.add_parser("hall", help="mean-value bound constants and decay envelope")
    _add_moduli_flag(p)
    p.add_argument(
        "--x-max",
        type=int,
        default=None,
        metavar="X",
        help="also tabulate the decay envelope up to X",
    )
    _add_ratio_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_hall)

    p = sub.add_parser(
        "error-growth", help="checkpoint residuals and growth-exponent fits"
    )
    _add_moduli_flag(p)
    p.add_argument("--x-max", type=int, required=True, metavar="X", help="scan limit (>= 10)")
    _add_ratio_flag(p)
    _add_stream_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_error_growth)

    p = sub.add_parser("dirichlet-check", help="numeric series-identity checks")
    _add_moduli_flag(p)
    p.add_argument("--s", type=float, default=2.0, help="evaluation point (real, > 1)")
    p.add_argument("--n-max", type=int, default=1_000_000, metavar="N", help="series cutoff")
    p.add_argument("--p-max", type=int, default=100_000, metavar="P", help="Euler-product cutoff")
    p.add_argument(
        "--tolerance", type=float, default=1e-3, metavar="T", help="pass/fail threshold"
    )
    _add_output_flags(p)
    p.set_defaults(handler=cmd_dirichlet_check)

    p = sub.add_parser("race", help="sign changes and leads between two classes")
    p.add_argument("--m", type=int, required=True, metavar="M", help="modulus")
    p.add_argument("--j", type=int, default=None, metavar="J", help="first class")
    p.add_argument("--jprime", type=int, default=None, metavar="J2", help="second class")
    p.add_argument("--x-max", type=int, required=True, metavar="X", help="scan limit")
    _add_stream_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=cmd_race)

    p = sub.add_parser("selftest", help="reduced-scale end-to-end checks")
    p.add_argument(
        "--x-limit", type=int, default=100_000, metavar="X", help="scan limit for the checks"
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one sieve value first (negative test of the selftest)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except InsufficientDataError as exc:
        print(f"omegadist: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"omegadist: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"omegadist: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"omegadist: i/o error: {exc}", file=sys.stderr)
        return 3
    except BrokenProcessPool as exc:
        print(f"omegadist: sieve worker died: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
