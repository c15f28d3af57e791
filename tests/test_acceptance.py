"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line with the measured values (run with `pytest -s` to see the
lines for passing tests too).

Heavy inputs are shared through module-scoped fixtures: one streaming sieve
pass to 10^7 records the checkpoint series for all moduli 1..12 at once, and
the m = 3 race reuses the same machinery.

Criterion c04a compares the class margins N_j(x)/x - 1/m with what the
Selberg-Delange method predicts for them, not with a fixed threshold.  The
paper only gives N_j(x) = x/m + O(x/log^A x), and the true margins at
x = 10^7 are large (0.038 / 0.066 / 0.088 for m = 4 / 5 / 6) because they
decay like (log x)^(cos(2*pi/m) - 1).  The two-term expansion
(Tenenbaum, Introduction to Analytic and Probabilistic Number Theory,
Part II, ch. 5-6)

    sum_{n<=x} z^Omega(n) = x (log x)^(z-1) (lam0(z) + lam1(z)/log x + O(1/log^2 x))

with lam0 = G(z)/Gamma(z) and lam1 = G(z) (gamma z - 1 + G'/G) / Gamma(z - 1)
at z = zeta_m^k gives a predicted deviation d_j(x) for every class, and
c04a asserts max_j |N_j(x)/x - 1/m - d_j(x)| <= 1/(log x)^2 at
x = 10^4, 10^5, 10^6 and 10^7 for m = 2..6.  The shape 1/log^2 x bounds
the first omitted term, which is O((log x)^(Re z - 3)) with Re z <= 1;
the constant 1 is chosen, not derived from the paper or the theorem.  The
largest measured ratio of residual to bound is 0.94 (m = 3, x = 10^4);
for every m the ratio falls with x (0.94 -> 0.45 for m = 3, 0.79 -> 0.37
for m = 6, from 10^4 to 10^7), as an o(1/log^2 x) error makes it do.
"""

import cmath
import math
import random
from time import perf_counter

import mpmath
import numpy as np
import pytest

from omegadist.cli import main
from omegadist.errorterms import growth_exponent, record_many, scaled_residuals
from omegadist.hall import hall_constants, hall_rhs
from omegadist.race import all_pairs
from omegadist.residues import (
    ResidueTally,
    counts_from_sums,
    inverse_residuals,
    new_tally,
    root_table,
    sums_from_counts,
    tally_segment,
)
from omegadist.sieve import iter_segments, omega_block, omega_single, primes_up_to
from omegadist.dirichlet import euler_G, euler_L, truncated_L, zeta_ref

X_BIG = 10_000_000

# Closed-form constants evaluated independently at 50 digits and frozen
# (nearest doubles).  A = c * (1 - cos(2*pi/m)), c = (1 - L/(2*pi))/2,
# L = 2*m*sin(pi/m).
A3_CLOSED = 0.12975499265048394  # 0.1297549926504839442997577...
C3_CLOSED = 0.08650332843365596  # 0.0865033284336559628665051...
A4_CLOSED = 0.049841841921446965

# zeta at even integers: pi-power closed forms (independent of zeta_ref).
ZETA_EVEN = {
    4: math.pi**4 / 90,
    6: math.pi**6 / 945,
    8: math.pi**8 / 9450,
    12: 691 * math.pi**12 / 638512875,
}

EULER_GAMMA = float(mpmath.euler)

C04_MODULI = [2, 3, 4, 5, 6]
C04_CHECKPOINTS = [10_000, 100_000, 1_000_000, X_BIG]
# Constant of the c04a residual bound C / (log x)^2: chosen, not derived.
C04_BOUND_CONSTANT = 1.0


def g_factor(z: complex, primes: np.ndarray) -> tuple[complex, complex]:
    """G(z) = prod_p (1 - z/p)^-1 (1 - 1/p)^z over the given primes, and
    its logarithmic derivative in s at s = 1,
    sum_p z (1 - z) log p / ((p - 1)(p - z)).

    Both converge absolutely for |z| < 2; past 10^7 the tails are below 1e-6.
    """
    p = primes.astype(np.float64)
    log_g = np.sum(z * np.log1p(-1.0 / p) - np.log1p(-z / p))
    log_derivative = np.sum(z * (1.0 - z) * np.log(p) / ((p - 1.0) * (p - z)))
    return cmath.exp(complex(log_g)), complex(log_derivative)


def main_term_coefficients(
    z: complex, g: complex, log_derivative: complex
) -> tuple[complex, complex]:
    """lam0(z) = G(z)/Gamma(z) and lam1(z) = G(z) (gamma z - 1 + G'/G(z)) / Gamma(z - 1),
    given G(z) and its logarithmic derivative G'/G in s at s = 1.

    lam_k(z) = mu_k(z)/Gamma(z - k), where mu_k is the k-th Taylor coefficient
    at s = 1 of ((s - 1) zeta(s))^z G(s; z) / s: gamma z comes from
    ((s - 1) zeta(s))^z and -1 from the Perron factor 1/s.  1/Gamma vanishes
    at 0, -1, -2, so z = 1 gives (1, 0) and z = -1 gives (0, 0) without a
    special case.
    """
    lam0 = g * complex(mpmath.rgamma(z))
    lam1 = g * (EULER_GAMMA * z - 1.0 + log_derivative) * complex(mpmath.rgamma(z - 1))
    return lam0, lam1


def mu1_numeric(z: complex, primes) -> complex:
    """d/ds [((s - 1) zeta(s))^z G(s; z) / s] at s = 1, with G over the given
    primes, by mpmath's numerical differentiation (independent of the
    closed form in main_term_coefficients)."""

    def mu(s):
        value = ((s - 1) * mpmath.zeta(s)) ** z / s
        for p in primes:
            u = mpmath.mpf(int(p)) ** -s
            value *= (1 - u) ** z / (1 - z * u)
        return value

    return complex(mpmath.diff(mu, 1))


def predicted_deviation(m: int, x: int, coefficients) -> np.ndarray:
    """d_j(x) = (1/m) sum_{k=1}^{m-1} Re[zeta_m^(-jk) (log x)^(z_k - 1)
    (lam0(z_k) + lam1(z_k)/log x)] for j = 0..m-1, where
    coefficients[k - 1] = (lam0(z_k), lam1(z_k)) and z_k = zeta_m^k."""
    log_x = math.log(x)
    deviation = np.zeros(m)
    for k, (lam0, lam1) in enumerate(coefficients, start=1):
        z = cmath.exp(2j * math.pi * k / m)
        term = cmath.exp((z - 1.0) * math.log(log_x)) * (lam0 + lam1 / log_x)
        for j in range(m):
            deviation[j] += (cmath.exp(-2j * math.pi * j * k / m) * term).real
    return deviation / m


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status} {detail}".rstrip(), flush=True)
    assert ok, f"{label} {detail}"


@pytest.fixture(scope="module")
def series_all():
    """Checkpoint series for every modulus 1..12, one sieve pass to 10^7."""
    return record_many(range(1, 13), X_BIG)


@pytest.fixture(scope="module")
def table_big():
    return primes_up_to(X_BIG)


@pytest.fixture(scope="module")
def race_m3():
    return all_pairs(3, X_BIG)


@pytest.fixture(scope="module")
def main_terms(table_big):
    """(lam0(z_k), lam1(z_k)) for k = 1..m-1 and every c04a modulus m."""
    return {
        m: [
            main_term_coefficients(z, *g_factor(z, table_big.primes))
            for z in (cmath.exp(2j * math.pi * k / m) for k in range(1, m))
        ]
        for m in C04_MODULI
    }


def final_counts(series_all, m):
    series = series_all[m]
    assert series.checkpoints[-1] == X_BIG
    return series.counts[-1]


def counts_at(series_all, m, x):
    series = series_all[m]
    for cp_x, counts in zip(series.checkpoints.tolist(), series.counts):
        if cp_x == x:
            return counts
    raise AssertionError(f"no checkpoint at {x}")


def test_c01_sieve_matches_oracle():
    started = perf_counter()
    small = omega_block(1, 100_001, primes_up_to(1000))
    ok_small = all(
        int(small.values[n - 1]) == omega_single(n) for n in range(1, 100_001)
    )
    lo = 10**9
    big = omega_block(lo, lo + 10**6, primes_up_to(math.isqrt(lo + 10**6)))
    rng = random.Random(20260825)
    offsets = [rng.randrange(10**6) for _ in range(10**4)]
    ok_big = all(int(big.values[i]) == omega_single(lo + i) for i in offsets)
    elapsed = perf_counter() - started
    check(
        "c01 sieve-vs-trial-division",
        ok_small and ok_big and elapsed < 10.0,
        f"(all n<=1e5: {ok_small}, 1e4 samples near 1e9: {ok_big}, {elapsed:.1f}s < 10s)",
    )


def test_c02_transform_roundtrip_to_1e6():
    started = perf_counter()
    segments = list(iter_segments(1_000_000))
    worst = 0.0
    exact = True
    for m in range(1, 13):
        tally = new_tally(m)
        for segment in segments:
            tally_segment(tally, segment)
        sums = sums_from_counts(tally)
        exact = exact and sums[0] == tally.x
        recovered = counts_from_sums(sums)
        exact = exact and np.array_equal(recovered.counts, tally.counts)
        worst = max(worst, *inverse_residuals(sums))
    elapsed = perf_counter() - started
    check(
        "c02 roundtrip-m1-12-x1e6",
        exact and worst < 1e-6 and elapsed < 30.0,
        f"(exact: {exact}, worst pre-rounding residual {worst:.2e} < 1e-6, "
        f"{elapsed:.1f}s < 30s)",
    )


def test_c03_scaled_residuals_sum_to_zero(series_all):
    worst = 0
    points = 0
    for m in range(1, 13):
        sums = scaled_residuals(series_all[m]).sum(axis=1)
        worst = max(worst, int(np.abs(sums).max()))
        points += len(sums)
    check(
        "c03 residual-zero-sum",
        worst == 0,
        f"(max |sum| = {worst} over {points} checkpoints, m = 1..12, x <= 1e7)",
    )


def test_c04a_main_term_oracle(table_big):
    primes = table_big.primes
    lam_one = main_term_coefficients(1.0, *g_factor(1.0, primes))
    lam_minus_one = main_term_coefficients(-1.0, *g_factor(-1.0, primes))
    ok_ends = (
        abs(lam_one[0] - 1.0) < 1e-12
        and abs(lam_one[1]) < 1e-12
        and abs(lam_minus_one[0]) < 1e-12
        and abs(lam_minus_one[1]) < 1e-12
    )
    # z = 2 with G = 1 is the divisor function:
    # sum_{n<=x} d(n) = x log x + (2 gamma - 1) x + O(sqrt x).
    divisor = main_term_coefficients(2.0, 1.0, 0.0)
    ok_divisor = (
        abs(divisor[0] - 1.0) < 1e-12
        and abs(divisor[1] - (2.0 * EULER_GAMMA - 1.0)) < 1e-12
    )
    # mu_1 = lam1 * Gamma(z - 1) against a numerical s-derivative, with G
    # over the primes below 30, at every z_k of m = 3..6.
    few = primes[primes < 30]
    mu_dev = 0.0
    for m in range(3, 7):
        for k in range(1, m):
            z = cmath.exp(2j * math.pi * k / m)
            lam1 = main_term_coefficients(z, *g_factor(z, few))[1]
            closed = lam1 / complex(mpmath.rgamma(z - 1))
            mu_dev = max(mu_dev, abs(closed - mu1_numeric(z, few)))
    small = primes[primes <= 1_000_000]
    tail = max(
        abs(g_factor(z, small)[0] - g_factor(z, primes)[0])
        for m in range(3, 7)
        for z in (cmath.exp(2j * math.pi * k / m) for k in range(1, m))
    )
    check(
        "c04a main-term-oracle",
        ok_ends and ok_divisor and mu_dev < 1e-9 and tail < 1e-6,
        f"(lam(1) = (1, 0), lam(-1) = (0, 0): {ok_ends}; divisor lam(2) = "
        f"(1, 2 gamma - 1): {ok_divisor}; max |mu1 closed - numeric| = "
        f"{mu_dev:.1e} < 1e-9; max |G(z_k) to 1e6 - G(z_k) to 1e7| = "
        f"{tail:.1e} < 1e-6, m = 3..6)",
    )


@pytest.mark.parametrize("m", C04_MODULI)
def test_c04a_equidistribution_margin(series_all, main_terms, m):
    worst_ratio = 0.0
    for x in C04_CHECKPOINTS:
        deviation = counts_at(series_all, m, x) / x - 1.0 / m
        predicted = predicted_deviation(m, x, main_terms[m])
        residual = float(np.max(np.abs(deviation - predicted)))
        bound = C04_BOUND_CONSTANT / math.log(x) ** 2
        worst_ratio = max(worst_ratio, residual / bound)
    # The loop ends at x = 1e7; the line reports the values there.
    margin = float(np.max(np.abs(deviation)))
    predicted_margin = float(np.max(np.abs(predicted)))
    check(
        f"c04a density-margin[m={m}]",
        worst_ratio <= 1.0,
        f"(at x = 1e7: max_j |N/x - 1/m| = {margin:.6f}, predicted "
        f"{predicted_margin:.6f}, residual {residual:.6f}, bound "
        f"{C04_BOUND_CONSTANT:g}/log^2 x = {bound:.6f}; worst residual/bound "
        f"over x = 1e4..1e7: {worst_ratio:.3f})",
    )


@pytest.mark.parametrize("m", C04_MODULI)
def test_c04b_margin_shrinks(series_all, m):
    at_1e5 = counts_at(series_all, m, 100_000)
    at_1e7 = final_counts(series_all, m)
    margin_small = float(np.max(np.abs(at_1e5 / 1e5 - 1.0 / m)))
    margin_big = float(np.max(np.abs(at_1e7 / 1e7 - 1.0 / m)))
    check(
        f"c04b margin-shrinks[m={m}]",
        margin_big < margin_small,
        f"({margin_big:.6f} at 1e7 < {margin_small:.6f} at 1e5)",
    )


def test_c05_hall_constants_closed_forms():
    h3 = hall_constants(3)
    h4 = hall_constants(4)
    dev3 = abs(h3.a_exponent - A3_CLOSED)
    dev4 = abs(h4.a_exponent - A4_CLOSED)
    devc = abs(h4.a_exponent - h4.c)
    ok = dev3 < 1e-6 and dev4 < 1e-6 and devc < 1e-12
    check(
        "c05 hall-constants",
        ok and abs(h3.c - C3_CLOSED) < 1e-6,
        f"(A(3) = {h3.a_exponent:.12f} dev {dev3:.1e}; "
        f"A(4) = {h4.a_exponent:.12f} dev {dev4:.1e}; |A(4)-c(4)| = {devc:.1e})",
    )


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_c06_envelope_constant(series_all, table_big, m):
    weights = root_table(m)[np.arange(m) % m]  # k = 1
    constants = []
    normalized = {}
    series = series_all[m]
    for x, counts in zip(series.checkpoints.tolist(), series.counts):
        if x < 1000:
            continue
        magnitude = abs(complex(np.sum(weights * counts)))
        normalized[x] = magnitude / x
        constants.append((magnitude / x) / hall_rhs(m, 1, x, table_big))
    c_fitted = max(constants)
    sublinear = normalized[X_BIG] < normalized[10_000]
    check(
        f"c06 decay-envelope[m={m}]",
        math.isfinite(c_fitted) and sublinear,
        f"(fitted C = {c_fitted:.4f}; |S|/x: {normalized[10_000]:.2e} at 1e4 -> "
        f"{normalized[X_BIG]:.2e} at 1e7)",
    )


def test_c07_lambda_quotient_value():
    started = perf_counter()
    value = truncated_L(2, 1, 2.0, 1_000_000)
    target = math.pi**2 / 15
    deviation = abs(value - target)
    elapsed = perf_counter() - started
    check(
        "c07 lambda-series-at-2",
        deviation < 1e-4 and elapsed < 5.0,
        f"(|sum - pi^2/15| = {deviation:.2e} < 1e-4, {elapsed:.1f}s < 5s)",
    )


def test_c08_euler_products_hit_zeta():
    started = perf_counter()
    worst = 0.0
    table = primes_up_to(100_000)
    for m in (2, 3, 4, 6):
        closed = ZETA_EVEN[2 * m]
        reference = zeta_ref(2 * m)
        full = 1.0 + 0j
        for k in range(m):
            full *= euler_L(m, k, 2.0, table)
        regular = 1.0 + 0j
        for k in range(1, m):
            regular *= euler_G(m, k, 2.0, table)
        for value in (full, regular):
            worst = max(worst, abs(value - closed), abs(value - reference))
    elapsed = perf_counter() - started
    check(
        "c08 euler-products",
        worst < 1e-6 and elapsed < 5.0,
        f"(worst |product - zeta(2m)| = {worst:.2e} < 1e-6 over m in "
        f"{{2,3,4,6}}, {elapsed:.1f}s < 5s)",
    )


@pytest.mark.parametrize("j", [0, 1, 2])
def test_c09_growth_exponent_window(series_all, j):
    fit = growth_exponent(series_all[3], j)
    check(
        f"c09 growth-exponent[j={j}]",
        0.55 <= fit.alpha_hat <= 1.05,
        f"(alpha_hat = {fit.alpha_hat:.4f} in [0.55, 1.05], "
        f"{fit.points_used} points, rms {fit.residual_rms:.3f})",
    )


def test_c10_race_consistency(series_all, race_m3):
    counts = final_counts(series_all, 3)
    ok = True
    details = []
    for summary in race_m3:
        expected = int(counts[summary.j] - counts[summary.jprime])
        ok = ok and summary.final_delta == expected
        directions = [e.direction for e in summary.events]
        ok = ok and all(a != b for a, b in zip(directions, directions[1:]))
        total = summary.lead_pos + summary.lead_neg + summary.lead_tie
        ok = ok and total == X_BIG
        details.append(f"({summary.j},{summary.jprime}): {len(summary.events)} changes")
    check(
        "c10 race-m3-to-1e7",
        ok,
        "(final deltas exact, events alternate, leads partition x; "
        + "; ".join(details)
        + ")",
    )


def test_c11_output_worker_independent(tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"density-w{workers}.csv"
        code = main(
            [
                "density",
                "--m", "2", "--m", "3",
                "--x-max", "1000000",
                "--workers", str(workers),
                "--output", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    check(
        "c11 worker-determinism",
        identical,
        f"(byte-identical across workers 1/4/8, {len(outputs[0])} bytes)",
    )
