"""Truncated Dirichlet series and Euler products for the unit-root twists
of Omega, with numeric checks of the identities they satisfy.

All evaluations are plain sums and products in the half-plane Re s > 1;
there is no analytic continuation here.  Reference zeta values come from a
truncated sum of DEFAULT_ZETA_TERMS terms plus the integral tail, which
is accurate to roughly half the last term.  Each Euler product runs over
every prime of a PrimeTable; each identity check builds one table.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .residues import root_table
from .sieve import PrimeTable, iter_segments, primes_up_to

#: Truncation of the reference zeta values; tail error ~ 5e-11 at s = 2.
DEFAULT_ZETA_TERMS = 100_000

# truncated_L fills each segment's terms this many at a time, so its
# temporaries stay far below the segment's one complex array.
_TERM_SLICE = 1 << 16


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity check plus their absolute deviation."""

    check: str
    lhs: complex
    rhs: complex

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


def _check_s(s: complex, what: str) -> complex:
    """complex(s), refused unless finite with Re s > 1: an infinite s passes
    the half-plane test and then turns every sum and product into NaN."""
    s = complex(s)
    if not s.real > 1.0:
        raise ValueError(f"{what} needs Re s > 1, got {s}")
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return s


def zeta_ref(s: complex) -> complex:
    """Reference zeta(s) for Re s > 1: truncated sum plus integral tail.

    zeta(s) ~ sum_{n<=N} n^(-s) + N^(1-s)/(s-1) with N = DEFAULT_ZETA_TERMS;
    the second term is the integral comparison of the discarded tail,
    leaving an error of about half the last term.  Each value is summed
    once and remembered: the identity checks ask for the same few s again.
    """
    s = _check_s(s, "zeta_ref")
    # 0.0 and -0.0 compare equal, but the sum of a -0.0 imaginary part may
    # carry zeros of the other sign, so the sign is part of the key.
    return _zeta_sum(s, math.copysign(1.0, s.imag))


@functools.lru_cache(maxsize=256)
def _zeta_sum(s: complex, imag_sign: float) -> complex:
    """zeta_ref of a checked s whose imaginary part has imag_sign."""
    n = np.arange(1, DEFAULT_ZETA_TERMS + 1, dtype=np.float64)
    head = complex(np.sum(n ** (-s)))
    tail = DEFAULT_ZETA_TERMS ** (1.0 - s) / (s - 1.0)
    return head + tail


def truncated_L(m: int, k: int, s: complex, n_max: int) -> complex:
    """Partial sum over n <= n_max of zeta_m^(k*Omega(n)) / n^s.

    Omega values come from the segmented sieve; no per-n factoring happens
    here.
    """
    s = _check_s(s, "truncated_L")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max >= 1 << 64:
        raise ValueError(f"n_max must be below 2**64, got {n_max}")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    weights = root_table(m)[np.arange(64) * k % m]
    total = 0j
    for segment in iter_segments(n_max):
        # One complex array per segment, filled in slices: each term is
        # weights[Omega(n)] * n^(-s) as a whole-segment expression would
        # give, and one np.sum over the array keeps its pairwise order.
        lo, hi = segment.lo, segment.hi
        terms = np.empty(hi - lo, dtype=np.complex128)
        for a in range(lo, hi, _TERM_SLICE):
            b = min(a + _TERM_SLICE, hi)
            out = terms[a - lo : b - lo]
            np.power(np.arange(a, b, dtype=np.float64), -s, out=out)
            np.multiply(weights[segment.values[a - lo : b - lo]], out, out=out)
        total += complex(np.sum(terms))
    return total


def _euler_product(m: int, k: int, s: complex, table: PrimeTable, factor) -> complex:
    """Multiply factor(zeta_m^k, p^(-s)) over every prime p of the table, in
    ascending prime order so the rounding is reproducible.

    The primes go _TERM_SLICE at a time, each slice's math.prod starting
    from the running product: the same multiplications in the same order as
    one product over all primes, without a Python complex per prime at once.
    """
    w = complex(root_table(m)[k])
    product = 1.0 + 0j
    for a in range(0, len(table.primes), _TERM_SLICE):
        p = table.primes[a : a + _TERM_SLICE].astype(np.float64)
        product = math.prod(factor(w, p ** (-s)).tolist(), start=product)
    return product


def euler_L(m: int, k: int, s: complex, table: PrimeTable) -> complex:
    """Euler product over the primes of the table of
    (1 - zeta_m^k * p^(-s))^(-1)."""
    s = _check_s(s, "euler_L")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    return _euler_product(m, k, s, table, lambda w, z: 1.0 / (1.0 - w * z))


def euler_G(m: int, k: int, s: complex, table: PrimeTable) -> complex:
    """Product over the primes of the table of
    (1 - zeta_m^k p^(-s))^(-1) * (1 - p^(-s))^(zeta_m^k).

    The second factor strips the zeta_m^k-th power of the zeta factor, which
    makes each term 1 + O(p^(-2s)) and the product rapidly convergent.  Only
    real s > 1 is supported: the complex power uses the principal log of the
    positive real base 1 - p^(-s), which is unambiguous there.
    """
    s = _check_s(s, "euler_G")
    if s.imag != 0.0:
        raise ValueError(f"only real s is supported, got {s}")
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    return _euler_product(
        m, k, s.real, table, lambda w, z: np.exp(w * np.log1p(-z)) / (1.0 - w * z)
    )


def check_lquo(s: complex, n_max: int) -> IdentityReport:
    """Check sum_{n<=n_max} lambda(n)/n^s against zeta(2s)/zeta(s).

    lambda is the m = 2, k = 1 twist: (-1)^Omega(n).
    """
    s = complex(s)
    lhs = truncated_L(2, 1, s, n_max)
    rhs = zeta_ref(2.0 * s) / zeta_ref(s)
    return IdentityReport(check="lambda-quotient", lhs=lhs, rhs=rhs)


def _product_check(
    check: str, evaluate, ks: range, m: int, s: complex, p_max: int
) -> IdentityReport:
    """Multiply evaluate(m, k, s, table) over k in ks, with one table of the
    primes up to p_max, and compare the product with zeta(m*s)."""
    table = primes_up_to(p_max)
    lhs = 1.0 + 0j
    for k in ks:
        lhs *= evaluate(m, k, s, table)
    return IdentityReport(check=check, lhs=lhs, rhs=zeta_ref(m * s))


def check_identity_product(m: int, s: complex, p_max: int) -> IdentityReport:
    """Check prod_{k=0}^{m-1} L_{m,k}(s) against zeta(m*s).

    Per prime the factors multiply to (1 - p^(-ms))^(-1), because the m-th
    roots of unity are exactly the roots of z^m - 1.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return _product_check("full-product", euler_L, range(m), m, s, p_max)


def check_g_product(m: int, s: float, p_max: int) -> IdentityReport:
    """Check prod_{k=1}^{m-1} G_{m,k}(s) against zeta(m*s).

    The zeta powers stripped from the nontrivial factors carry total
    exponent sum_{k=1}^{m-1} zeta_m^k = -1, which cancels the missing k = 0
    factor exactly.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}: the product is over 0 < k < m")
    return _product_check("g-product", euler_G, range(1, m), m, s, p_max)
