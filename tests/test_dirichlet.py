"""Series and Euler-product tests: reference zeta accuracy, hand-computed
partial sums, per-prime algebra, and the identity checks at moderate cutoffs."""

import cmath
import math

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
    assert abs(zeta_ref(2, 100_000) - ZETA2) < 1e-9
    assert abs(zeta_ref(4, 100_000) - ZETA4) < 1e-14
    assert abs(zeta_ref(6, 10_000) - ZETA6) < 1e-14


def test_zeta_ref_large_s_tends_to_one():
    assert abs(zeta_ref(30.0, 10) - 1.0) < 1e-8


def test_zeta_ref_complex_argument():
    # Compare two truncation depths against each other: the tail estimate
    # must make them agree far better than either naive partial sum.
    a = zeta_ref(2 + 1j, 20_000)
    b = zeta_ref(2 + 1j, 100_000)
    assert abs(a - b) < 1e-8


def test_zeta_ref_validates():
    with pytest.raises(ValueError):
        zeta_ref(1.0, 1000)
    with pytest.raises(ValueError):
        zeta_ref(0.5 + 3j, 1000)
    with pytest.raises(ValueError):
        zeta_ref(float("nan"), 1000)
    with pytest.raises(ValueError):
        zeta_ref(2.0, 5)


@pytest.mark.parametrize("s", [math.inf, complex(2.0, math.inf)], ids=["inf", "inf-imag"])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s: zeta_ref(s, 1000),
        lambda s: truncated_L(3, 1, s, 100),
        lambda s: euler_L(3, 1, s, 100),
        lambda s: euler_G(3, 1, s, 100),
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
    result = truncated_L(2, 1, 2, 10)
    assert abs(result.value - expected) < 1e-14
    assert result.method == "truncated-sum" and result.cutoff == 10


def test_truncated_L_k0_matches_zeta():
    # k = 0 weights are identically 1: the partial sum is zeta's, so the
    # zeta_ref tail is the only difference.
    partial = truncated_L(3, 0, 2.0, 100_000).value
    assert abs(partial + 100_000 ** (-1.0) - zeta_ref(2.0, 100_000)) < 1e-7


def test_truncated_L_liouville_toward_quotient():
    value = truncated_L(2, 1, 2.0, 200_000).value
    assert abs(value - math.pi**2 / 15) < 1e-5


def test_truncated_L_accepts_custom_source(monkeypatch):
    b = truncated_L(3, 1, 2.0, 1000)
    monkeypatch.setattr(
        dirichlet, "iter_segments", lambda n_max: iter_segments(n_max, segment_size=128)
    )
    a = truncated_L(3, 1, 2.0, 1000)
    assert abs(a.value - b.value) < 1e-15


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


def test_euler_L_validates():
    with pytest.raises(ValueError, match="p_max must be >= 2"):
        euler_L(3, 1, 2.0, 1)
    with pytest.raises(ValueError, match="prime table covers 100 but p_max = 1000"):
        euler_L(3, 1, 2.0, 1000, table=primes_up_to(100))
    with pytest.raises(ValueError, match="Re s > 1"):
        euler_L(3, 1, 1.0, 100)
    with pytest.raises(ValueError, match="need 0 <= k < m"):
        euler_L(3, 3, 2.0, 100)


def test_euler_L_single_prime():
    value = euler_L(4, 1, 2, 2).value
    assert abs(value - 1 / (1 - 0.25j)) < 1e-15


def test_euler_L_k0_is_zeta_product():
    # Euler product for zeta itself, capped: below zeta(2) and converging up.
    small = euler_L(5, 0, 2.0, 100).value
    large = euler_L(5, 0, 2.0, 10_000).value
    assert small.real < large.real < ZETA2
    assert abs(large - ZETA2) < 1e-4


def test_euler_methods_agree():
    # Same object two ways: truncated sum vs Euler product, m = 3, k = 1.
    series = truncated_L(3, 1, 2.0, 1_000_000).value
    product = euler_L(3, 1, 2.0, 100_000).value
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
    m, k, s, p_max = 5, 2, 2.0, 1000
    w = complex(root_table(m)[k])
    lhs = euler_L(m, k, s, p_max).value
    zeta_part = euler_L(m, 0, s, p_max).value
    rhs = cmath.exp(w * cmath.log(zeta_part)) * euler_G(m, k, s, p_max).value
    assert abs(lhs - rhs) < 1e-12


def test_euler_G_converges_fast():
    # Regularized factors are 1 + O(p^(-2s)): the partial product moves very
    # little between cutoffs 10^3 and 10^4.
    a = euler_G(3, 1, 2.0, 1000).value
    b = euler_G(3, 1, 2.0, 10_000).value
    assert abs(a - b) < 1e-9


def test_euler_G_validates():
    with pytest.raises(ValueError):
        euler_G(3, 1, 2 + 1j, 100)  # complex s unsupported
    with pytest.raises(ValueError):
        euler_G(3, 0, 2.0, 100)  # k = 0 excluded
    with pytest.raises(ValueError):
        euler_G(3, 1, 1.0, 100)
    with pytest.raises(ValueError):
        euler_G(3, 1, float("nan"), 100)


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


def test_shared_prime_table_reused():
    table = primes_up_to(10_000)
    a = check_identity_product(3, 2.0, 10_000, table)
    b = check_identity_product(3, 2.0, 10_000)
    assert a.lhs == b.lhs


def test_conjugate_characters_give_conjugate_values():
    a = euler_L(5, 1, 2.0, 1000).value
    b = euler_L(5, 4, 2.0, 1000).value
    assert abs(a - np.conj(b)) < 1e-12
