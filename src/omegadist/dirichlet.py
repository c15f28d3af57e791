"""Truncated Dirichlet series and Euler products for the unit-root twists
of Omega, with numeric checks of the identities they satisfy.

All evaluations are plain sums and products in the half-plane Re s > 1;
there is no analytic continuation here.  Reference zeta values come from a
truncated sum plus the integral tail, which is accurate to roughly
0.5 * terms^(-Re s) relative.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .residues import residue_lut, root_table
from .sieve import PrimeTable, iter_segments, primes_up_to

#: Truncation of the reference zeta values in the identity checks; tail
#: error ~ 5e-11 at s = 2.
DEFAULT_ZETA_TERMS = 100_000


@dataclass(frozen=True)
class DirichletEvaluation:
    """One numeric evaluation of L_{m,k}(s), tagged with how it was made."""

    m: int
    k: int
    s: complex
    method: str  # "truncated-sum", "euler-product" or "g-product"
    cutoff: int  # n_max or p_max
    value: complex


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity check plus their absolute deviation."""

    check: str
    lhs: complex
    rhs: complex

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


def _require_finite(s: complex) -> None:
    """Reject an infinite s, which passes the Re s > 1 checks and then
    turns every sum and product into NaN."""
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")


def zeta_ref(s: complex, terms: int) -> complex:
    """Reference zeta(s) for Re s > 1: truncated sum plus integral tail.

    zeta(s) ~ sum_{n<=terms} n^(-s) + terms^(1-s)/(s-1); the second term is
    the integral comparison of the discarded tail, leaving an error of about
    half the last term.
    """
    s = complex(s)
    if not s.real > 1.0:
        raise ValueError(f"zeta_ref needs Re s > 1, got {s}")
    _require_finite(s)
    if terms < 10:
        raise ValueError(f"terms must be >= 10, got {terms}")
    n = np.arange(1, terms + 1, dtype=np.float64)
    head = complex(np.sum(n ** (-s)))
    tail = terms ** (1.0 - s) / (s - 1.0)
    return head + tail


def truncated_L(m: int, k: int, s: complex, n_max: int) -> DirichletEvaluation:
    """Partial sum over n <= n_max of zeta_m^(k*Omega(n)) / n^s.

    Omega values come from the segmented sieve; no per-n factoring happens
    here.
    """
    s = complex(s)
    if not s.real > 1.0:
        raise ValueError(f"truncation is only trusted for Re s > 1, got {s}")
    _require_finite(s)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max >= 1 << 64:
        raise ValueError(f"n_max must be below 2**64, got {n_max}")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    weights = root_table(m)[(residue_lut(m) * k) % m]
    total = 0j
    for segment in iter_segments(n_max):
        n = np.arange(segment.lo, segment.hi, dtype=np.float64)
        total += complex(np.sum(weights[segment.values] * n ** (-s)))
    return DirichletEvaluation(
        m=m, k=k, s=s, method="truncated-sum", cutoff=n_max, value=total
    )


def _primes_below(p_max: int, table: PrimeTable | None) -> np.ndarray:
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    if table is None:
        table = primes_up_to(p_max)
    elif table.limit < p_max:
        raise ValueError(f"prime table covers {table.limit} but p_max = {p_max}")
    return table.primes[table.primes <= p_max].astype(np.float64)


def _euler_product(
    m: int, k: int, s: complex, p_max: int, table: PrimeTable | None, method: str, factor
) -> DirichletEvaluation:
    """Multiply factor(zeta_m^k, p^(-s)) over the primes p <= p_max, in
    ascending prime order so the rounding is reproducible."""
    w = complex(root_table(m)[k])
    value = 1.0 + 0j
    for term in factor(w, _primes_below(p_max, table) ** (-s)):
        value *= complex(term)
    return DirichletEvaluation(
        m=m, k=k, s=s, method=method, cutoff=int(p_max), value=value
    )


def euler_L(
    m: int,
    k: int,
    s: complex,
    p_max: int,
    table: PrimeTable | None = None,
) -> DirichletEvaluation:
    """Euler product over p <= p_max of (1 - zeta_m^k * p^(-s))^(-1)."""
    s = complex(s)
    if not s.real > 1.0:
        raise ValueError(f"Euler product needs Re s > 1, got {s}")
    _require_finite(s)
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    return _euler_product(
        m, k, s, p_max, table, "euler-product", lambda w, z: 1.0 / (1.0 - w * z)
    )


def euler_G(
    m: int,
    k: int,
    s: complex,
    p_max: int,
    table: PrimeTable | None = None,
) -> DirichletEvaluation:
    """Partial product of (1 - zeta_m^k p^(-s))^(-1) * (1 - p^(-s))^(zeta_m^k).

    The second factor strips the zeta_m^k-th power of the zeta factor, which
    makes each term 1 + O(p^(-2s)) and the product rapidly convergent.  Only
    real s > 1 is supported: the complex power uses the principal log of the
    positive real base 1 - p^(-s), which is unambiguous there.
    """
    s = complex(s)
    if s.imag != 0.0:
        raise ValueError(f"only real s is supported, got {s}")
    s_real = s.real
    if not s_real > 1.0:
        raise ValueError(f"need s > 1, got {s_real}")
    _require_finite(s)
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    return _euler_product(
        m, k, s_real, p_max, table, "g-product",
        lambda w, z: np.exp(w * np.log1p(-z)) / (1.0 - w * z),
    )


def check_lquo(s: complex, n_max: int) -> IdentityReport:
    """Check sum_{n<=n_max} lambda(n)/n^s against zeta(2s)/zeta(s).

    lambda is the m = 2, k = 1 twist: (-1)^Omega(n).
    """
    s = complex(s)
    lhs = truncated_L(2, 1, s, n_max).value
    rhs = zeta_ref(2.0 * s, DEFAULT_ZETA_TERMS) / zeta_ref(s, DEFAULT_ZETA_TERMS)
    return IdentityReport(check="lambda-quotient", lhs=lhs, rhs=rhs)


def _product_check(
    check: str, evaluate, ks: range, m: int, s: complex, p_max: int,
    table: PrimeTable | None,
) -> IdentityReport:
    """Multiply evaluate(m, k, s, p_max, table) over k in ks and compare the
    product with zeta(m*s)."""
    lhs = 1.0 + 0j
    for k in ks:
        lhs *= evaluate(m, k, s, p_max, table).value
    return IdentityReport(check=check, lhs=lhs, rhs=zeta_ref(m * s, DEFAULT_ZETA_TERMS))


def check_identity_product(
    m: int,
    s: complex,
    p_max: int,
    table: PrimeTable | None = None,
) -> IdentityReport:
    """Check prod_{k=0}^{m-1} L_{m,k}(s) against zeta(m*s).

    Per prime the factors multiply to (1 - p^(-ms))^(-1), because the m-th
    roots of unity are exactly the roots of z^m - 1.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return _product_check("full-product", euler_L, range(m), m, s, p_max, table)


def check_g_product(
    m: int,
    s: float,
    p_max: int,
    table: PrimeTable | None = None,
) -> IdentityReport:
    """Check prod_{k=1}^{m-1} G_{m,k}(s) against zeta(m*s).

    The zeta powers stripped from the nontrivial factors carry total
    exponent sum_{k=1}^{m-1} zeta_m^k = -1, which cancels the missing k = 0
    factor exactly.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}: the product is over 0 < k < m")
    return _product_check("g-product", euler_G, range(1, m), m, s, p_max, table)
