"""Series and Euler-product tests: reference zeta accuracy, hand-computed
partial sums, per-prime algebra, and the identity checks at moderate cutoffs."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from omegadist import dirichlet
from omegadist.dirichlet import (
    check_g_product,
    check_identity_product,
    check_lquo,
    euler_G,
    euler_L,
    truncated_L,
    zeta_ref,
)
from omegadist.residues import root_table
from omegadist.sieve import iter_segments, primes_up_to

ZETA2 = math.pi**2 / 6
ZETA4 = math.pi**4 / 90
ZETA6 = math.pi**6 / 945


def test_zeta_ref_even_arguments():
    assert abs(zeta_ref(2) - ZETA2) < 1e-9
    assert abs(zeta_ref(4) - ZETA4) < 1e-14
    assert abs(zeta_ref(6) - ZETA6) < 1e-14


def test_zeta_ref_large_s_tends_to_one():
    assert abs(zeta_ref(30.0) - 1.0) < 1e-8


def test_zeta_ref_complex_argument():
    # Off the real axis the tail estimate must still leave the truncated
    # sum far closer to zeta than the naive partial sum (~1e-5).
    assert abs(zeta_ref(2 + 1j) - complex(mpmath.zeta(2 + 1j))) < 1e-8


def test_zeta_ref_is_summed_once_per_argument():
    """dirichlet-check asks for zeta(4) three times: the later calls return
    the same complex without a new power sum, and a -0.0 imaginary part
    gets a sum of its own."""
    dirichlet._zeta_sum.cache_clear()
    first = zeta_ref(4)
    assert zeta_ref(4.0 + 0j) is first
    info = dirichlet._zeta_sum.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert zeta_ref(complex(4.0, -0.0)) == first
    assert dirichlet._zeta_sum.cache_info().misses == 2


def test_zeta_ref_validates():
    with pytest.raises(ValueError):
        zeta_ref(1.0)
    with pytest.raises(ValueError):
        zeta_ref(0.5 + 3j)
    with pytest.raises(ValueError):
        zeta_ref(float("nan"))


@pytest.mark.parametrize("s", [math.inf, complex(2.0, math.inf)], ids=["inf", "inf-imag"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s: zeta_ref(s),
        lambda s: truncated_L(3, 1, s, 100),
        lambda s: euler_L(3, 1, s, primes_up_to(100)),
        lambda s: euler_G(3, 1, s, primes_up_to(100)),
    ],
    ids=["zeta_ref", "truncated_L", "euler_L", "euler_G"],
)
def test_rejects_infinite_s(evaluate, s):
    with pytest.raises(ValueError):
        evaluate(s)


def test_truncated_L_hand_computed():
    # lambda values for n = 1..10 under m = 2, k = 1: + - - + - + - - + +
    signs = [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]
    expected = sum(sign / n**2 for n, sign in zip(range(1, 11), signs))
    assert abs(truncated_L(2, 1, 2, 10) - expected) < 1e-14


def test_truncated_L_k0_matches_zeta():
    # k = 0 weights are identically 1: the partial sum is zeta's, so the
    # zeta_ref tail is the only difference.
    n = dirichlet.DEFAULT_ZETA_TERMS
    partial = truncated_L(3, 0, 2.0, n)
    assert abs(partial + n ** (-1.0) - zeta_ref(2.0)) < 1e-7


def test_truncated_L_liouville_toward_quotient():
    value = truncated_L(2, 1, 2.0, 200_000)
    assert abs(value - math.pi**2 / 15) < 1e-5


def test_truncated_L_accepts_custom_source(monkeypatch):
    b = truncated_L(3, 1, 2.0, 1000)
    monkeypatch.setattr(
        dirichlet, "iter_segments", lambda n_max: iter_segments(n_max, segment_size=128)
    )
    a = truncated_L(3, 1, 2.0, 1000)
    assert abs(a - b) < 1e-15


def test_truncated_L_validates_domain():
    with pytest.raises(ValueError):
        truncated_L(2, 1, 1.0, 100)
    with pytest.raises(ValueError):
        truncated_L(2, 1, float("nan"), 100)
    with pytest.raises(ValueError):
        truncated_L(2, 2, 2.0, 100)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        truncated_L(3, 1, 2.0, 0)
    with pytest.raises(ValueError, match=r"n_max must be below 2\*\*64"):
        truncated_L(3, 1, 2.0, 2**64)


def test_truncated_L_sums_the_whole_segment_terms_exactly():
    # The terms are filled slice by slice, but each is the float of the
    # whole-segment expression and one np.sum per segment adds them in the
    # same pairwise order, so the value is bit-identical.
    n_max = (1 << 20) + 3 * dirichlet._TERM_SLICE + 5
    for m, k, s in [(2, 1, 2.0), (5, 2, complex(1.5, 3.0))]:
        weights = root_table(m)[(np.arange(64) * k) % m]
        expected = 0j
        for segment in iter_segments(n_max):
            n = np.arange(segment.lo, segment.hi, dtype=np.float64)
            expected += complex(np.sum(weights[segment.values] * n ** (-s)))
        assert truncated_L(m, k, s, n_max) == expected


def test_truncated_sum_keeps_one_array_per_segment(peak_rss_growth_mb):
    # One complex128 array of 10^6 terms is 16 MB; four whole-segment
    # temporaries added 41 MB.
    assert peak_rss_growth_mb("truncated_L(2, 1, 2.0, 10**6)") < 24


def test_euler_products_multiply_left_to_right():
    # The product is the rounding of a plain ascending loop, bit for bit.
    table = primes_up_to(10_000)
    p = table.primes.astype(np.float64)
    for m in (3, 7, 12):
        for k in range(m):
            w = complex(root_table(m)[k])
            expected = 1.0 + 0j
            for term in 1.0 / (1.0 - w * p ** -(2.0 + 0j)):
                expected *= complex(term)
            assert euler_L(m, k, 2.0, table) == expected


def test_euler_products_across_slices_match_one_product():
    # More primes than two slices, the last one short: the sliced products
    # equal one math.prod over every factor, bit for bit.
    table = primes_up_to(2_000_000)
    assert 2 * dirichlet._TERM_SLICE < len(table.primes) < 3 * dirichlet._TERM_SLICE
    p = table.primes.astype(np.float64)
    for m, k, s in [(3, 1, 2.0), (12, 5, 1.5)]:
        w = complex(root_table(m)[k])
        z = p ** -complex(s)
        expected = math.prod((1.0 / (1.0 - w * z)).tolist(), start=1.0 + 0j)
        assert euler_L(m, k, s, table) == expected
        z = p ** -s
        g = np.exp(w * np.log1p(-z)) / (1.0 - w * z)
        assert euler_G(m, k, s, table) == math.prod(g.tolist(), start=1.0 + 0j)


def test_euler_product_to_10_to_8_stays_small(peak_rss_growth_mb):
    # The table is 23 MB of uint32; a complex array and a Python complex
    # per prime, all at once, added 376 MB.
    statement = (
        "from omegadist.dirichlet import euler_L; "
        "euler_L(3, 1, 2.0, primes_up_to(10**8))"
    )
    assert peak_rss_growth_mb(statement) < 50


def test_euler_L_validates():
    table = primes_up_to(100)
    with pytest.raises(ValueError, match="limit must be >= 2"):
        check_identity_product(3, 2.0, 1)
    with pytest.raises(ValueError, match="Re s > 1"):
        euler_L(3, 1, 1.0, table)
    with pytest.raises(ValueError, match="need 0 <= k < m"):
        euler_L(3, 3, 2.0, table)


def test_euler_L_single_prime():
    value = euler_L(4, 1, 2, primes_up_to(2))
    assert abs(value - 1 / (1 - 0.25j)) < 1e-15


def test_euler_L_k0_is_zeta_product():
    # Euler product for zeta itself, capped: below zeta(2) and converging up.
    small = euler_L(5, 0, 2.0, primes_up_to(100))
    large = euler_L(5, 0, 2.0, primes_up_to(10_000))
    assert small.real < large.real < ZETA2
    assert abs(large - ZETA2) < 1e-4


def test_euler_methods_agree():
    # Same object two ways: truncated sum vs Euler product, m = 3, k = 1.
    series = truncated_L(3, 1, 2.0, 1_000_000)
    product = euler_L(3, 1, 2.0, primes_up_to(100_000))
    assert abs(series - product) < 1e-3


def test_per_prime_root_product():
    # prod over all k of (1 - zeta^k z) = 1 - z^m: the factor algebra the
    # full-product identity rests on, checked numerically per prime.
    for m in (2, 3, 4, 6, 8):
        powers = root_table(m)
        for p in (2.0, 3.0, 5.0):
            z = p**-2
            product = 1.0 + 0j
            for k in range(m):
                product *= 1 - powers[k] * z
            assert abs(product - (1 - z**m)) < 1e-14


def test_euler_G_factorwise_identity():
    # euler_L = (zeta Euler product)^w * euler_G holds factor by factor.
    m, k, s, table = 5, 2, 2.0, primes_up_to(1000)
    w = complex(root_table(m)[k])
    lhs = euler_L(m, k, s, table)
    zeta_part = euler_L(m, 0, s, table)
    rhs = cmath.exp(w * cmath.log(zeta_part)) * euler_G(m, k, s, table)
    assert abs(lhs - rhs) < 1e-12


def test_euler_G_converges_fast():
    # Regularized factors are 1 + O(p^(-2s)): the partial product moves very
    # little between cutoffs 10^3 and 10^4.
    a = euler_G(3, 1, 2.0, primes_up_to(1000))
    b = euler_G(3, 1, 2.0, primes_up_to(10_000))
    assert abs(a - b) < 1e-9


def test_euler_G_validates():
    table = primes_up_to(100)
    with pytest.raises(ValueError):
        euler_G(3, 1, 2 + 1j, table)  # complex s unsupported
    with pytest.raises(ValueError):
        euler_G(3, 0, 2.0, table)  # k = 0 excluded
    with pytest.raises(ValueError):
        euler_G(3, 1, 1.0, table)
    with pytest.raises(ValueError):
        euler_G(3, 1, float("nan"), table)


def test_check_lquo_small_and_tight():
    report = check_lquo(3.0, 10_000)
    assert report.deviation < 1e-6
    assert report.check == "lambda-quotient"


def test_check_identity_product_m3():
    report = check_identity_product(3, 2.0, 100_000)
    assert report.deviation < 1e-6
    assert abs(report.rhs - ZETA6) < 1e-10


def test_check_identity_product_m1_degenerates_to_zeta():
    report = check_identity_product(1, 2.0, 10_000)
    assert abs(report.rhs - ZETA2) < 1e-9
    assert report.deviation < 1e-3  # Euler cutoff at 10^4 dominates


def test_check_g_product_m4():
    report = check_g_product(4, 2.0, 100_000)
    assert report.deviation < 1e-6
    assert abs(report.rhs - math.pi**8 / 9450) < 1e-10


def test_check_g_product_requires_m2():
    with pytest.raises(ValueError):
        check_g_product(1, 2.0, 1000)


def test_check_identity_product_requires_m1():
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        check_identity_product(0, 2.0, 100)


@pytest.mark.parametrize(
    "check", [check_identity_product, check_g_product], ids=["full-product", "g-product"]
)
def test_identity_check_builds_one_prime_table(monkeypatch, check):
    limits = []

    def counted(limit):
        limits.append(limit)
        return primes_up_to(limit)

    monkeypatch.setattr(dirichlet, "primes_up_to", counted)
    check(3, 2.0, 10_000)
    assert limits == [10_000]


def test_conjugate_characters_give_conjugate_values():
    table = primes_up_to(1000)
    a = euler_L(5, 1, 2.0, table)
    b = euler_L(5, 4, 2.0, table)
    assert abs(a - np.conj(b)) < 1e-12
