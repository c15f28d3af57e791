"""Closed-form constants checked against a high-precision oracle (mpmath at
50 digits), plus the geometry sanity properties behind them."""

import math

import mpmath
import numpy as np
import pytest

from omegadist.hall import (
    hall_constants,
    hall_rhs,
    hull_perimeter,
    mertens_sums,
    predicted_bound,
)
from omegadist.sieve import primes_up_to

mpmath.mp.dps = 50


def oracle_constants(m):
    """Independent evaluation of (L, c, A) at 50 digits."""
    if m == 2:
        L = mpmath.mpf(4)
    else:
        L = 2 * m * mpmath.sin(mpmath.pi / m)
    c = (1 - L / (2 * mpmath.pi)) / 2
    A = min(c * (1 - mpmath.cos(2 * mpmath.pi * k / m)) for k in range(1, m))
    return L, c, A


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 12, 30, 360])
def test_constants_match_oracle(m):
    got = hall_constants(m)
    L, c, A = oracle_constants(m)
    assert abs(got.perimeter - float(L)) < 1e-12
    assert abs(got.c - float(c)) < 1e-12
    assert abs(got.a_exponent - float(A)) < 1e-12


def test_perimeter_known_shapes():
    assert hull_perimeter(2) == 4.0
    assert abs(hull_perimeter(3) - 3 * math.sqrt(3)) < 1e-12
    assert abs(hull_perimeter(4) - 4 * math.sqrt(2)) < 1e-12
    assert abs(hull_perimeter(6) - 6.0) < 1e-12


def test_perimeter_approaches_circle():
    # Inscribed polygons: perimeter increases in m and tends to 2*pi.
    values = [hull_perimeter(m) for m in range(3, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert 2 * math.pi - 1e-4 < hull_perimeter(360) < 2 * math.pi


def test_perimeter_rejects_m1():
    with pytest.raises(ValueError):
        hull_perimeter(1)


def test_c_positive_and_shrinking():
    cs = [hall_constants(m).c for m in range(2, 100)]
    assert all(c > 0 for c in cs)
    assert all(a > b for a, b in zip(cs[1:], cs[2:]))  # decreasing for m >= 3


def test_exponent_minimum_at_k1():
    # A as implemented (k = 1) equals the explicit minimum over all k.
    for m in range(2, 40):
        constants = hall_constants(m)
        explicit = min(
            constants.c * (1 - math.cos(2 * math.pi * k / m)) for k in range(1, m)
        )
        assert abs(constants.a_exponent - explicit) < 1e-15


def test_m4_exponent_equals_c():
    constants = hall_constants(4)
    # cos(pi/2) is ~6e-17 in IEEE, so equality holds only to that level.
    assert abs(constants.a_exponent - constants.c) < 1e-15


def test_mertens_small_values():
    two, ten = mertens_sums([2, 10], primes_up_to(100))
    assert two == 0.5
    assert abs(ten - (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-15


def test_mertens_sum_is_the_ascending_prefix_sum():
    # Read from one running sum in one call, each value must be the very
    # float that summing 1/p over p <= x afresh, left to right, gives: the
    # CLI's envelope bytes depend on it.  x runs unsorted, with repeats, over
    # primes, composites and the table limit.
    table = primes_up_to(200_000)
    xs = [1000, 2, 3, 200_000, 4, 10, 97, 100, 4093, 65_536, 199_999, 10, 2]
    xs += np.random.default_rng(6).integers(2, 200_001, 200).tolist()
    for x, value in zip(xs, mertens_sums(xs, table), strict=True):
        fresh = np.cumsum(1.0 / table.primes[table.primes <= x])[-1]
        assert value == fresh


def test_mertens_asymptotics():
    # sum 1/p ~ log log x + M with M = 0.2614972...; at 10^6 the residual
    # error is around 1/log(10^6)^2 ~ 0.005.
    table = primes_up_to(1_000_000)
    (value,) = mertens_sums([1_000_000], table)
    expected = math.log(math.log(1_000_000)) + 0.2614972128476428
    assert abs(value - expected) < 0.01


def test_mertens_validates():
    table = primes_up_to(100)
    with pytest.raises(ValueError, match="x must be >= 2, got 1"):
        mertens_sums([10, 1], table)
    with pytest.raises(ValueError, match="prime table covers 100 but x = 1000"):
        mertens_sums([1000, 10], table)


def test_hall_rhs_compose():
    (mertens,) = mertens_sums([1000], primes_up_to(1000))
    m, k = 5, 2
    constants = hall_constants(m)
    expected = math.exp(
        -constants.c * (1 - math.cos(2 * math.pi * k / m)) * mertens
    )
    assert hall_rhs(m, k, mertens) == pytest.approx(expected, abs=1e-15)
    assert 0 < hall_rhs(m, k, mertens) < 1


def test_hall_rhs_decreasing_in_x():
    mertens = mertens_sums([10, 100, 1000, 10_000], primes_up_to(10_000))
    values = [hall_rhs(3, 1, value) for value in mertens]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hall_rhs_validates_k():
    (mertens,) = mertens_sums([100], primes_up_to(100))
    for k in (0, 3, -1):
        with pytest.raises(ValueError):
            hall_rhs(3, k, mertens)


def test_predicted_bound_examples():
    # At x = e the log is 1, so the bound is x itself, for any m.
    assert predicted_bound(2, math.e) == pytest.approx(math.e, abs=1e-12)
    # Sublinear: bound/x shrinks as x grows.
    ratios = [predicted_bound(3, 10.0**t) / 10.0**t for t in range(1, 8)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_predicted_bound_validates():
    with pytest.raises(ValueError):
        predicted_bound(3, 1.0)
    with pytest.raises(ValueError):
        predicted_bound(1, 100.0)
