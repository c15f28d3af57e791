"""Constants of the convex-hull mean-value bound and the decay envelope it
implies for the unit-root character sums.

Everything here is closed-form trigonometry plus one running sum of 1/p; the
heavy lifting lives in the sieve and tally modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sieve import PrimeTable


@dataclass(frozen=True)
class HallConstants:
    """m-gon perimeter L, the derived constant c, and the exponent A."""

    m: int
    perimeter: float  # L: hull perimeter of the m-th roots of unity
    c: float          # (1/2) * (1 - L / (2*pi))
    a_exponent: float  # min over 0 < k < m of c * (1 - cos(2*pi*k/m))


def hull_perimeter(m: int) -> float:
    """Perimeter of the convex hull of the m-th roots of unity.

    A regular m-gon inscribed in the unit circle for m >= 3, so
    L = 2*m*sin(pi/m).  For m = 2 the hull degenerates to the segment
    [-1, 1], whose boundary (traversed both ways) has length 4.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}: no nontrivial twist exists")
    if m == 2:
        return 4.0
    return 2.0 * m * math.sin(math.pi / m)


def hall_constants(m: int) -> HallConstants:
    """All three constants for modulus m.

    The minimum of c * (1 - cos(2*pi*k/m)) over 0 < k < m sits at k = 1
    (and its mirror m - 1), since cos is largest nearest the origin.
    """
    perimeter = hull_perimeter(m)
    c = 0.5 * (1.0 - perimeter / (2.0 * math.pi))
    a_exponent = c * (1.0 - math.cos(2.0 * math.pi / m))
    return HallConstants(m=m, perimeter=perimeter, c=c, a_exponent=a_exponent)


def mertens_sums(xs: list[int], table: PrimeTable) -> list[float]:
    """sum of 1/p over primes p <= x for every x in xs, in any order: one
    running sum of 1/p in ascending order, read at each x's prime count, so
    each value is the same float as summing its prefix afresh."""
    for x in xs:
        if x < 2:
            raise ValueError(f"x must be >= 2, got {x}")
        if table.limit < x:
            raise ValueError(f"prime table covers {table.limit} but x = {x}")
    # Needles of the table's dtype; Python ints would cast the whole table.
    counts = np.searchsorted(table.primes, np.array(xs, dtype=np.uint32), "right")
    sums = 1.0 / table.primes[: counts.max(initial=0)]
    return np.cumsum(sums, out=sums)[counts - 1].tolist()


def hall_rhs(m: int, k: int, mertens: float) -> float:
    """Decay envelope exp(-c * (1 - cos(2*pi*k/m)) * mertens), where
    mertens = sum_{p<=x} 1/p.

    This is the per-character shape of the mean-value bound for |S_k(x)|/x;
    it decays like a negative power of log x.
    """
    constants = hall_constants(m)
    if not 0 < k < m:
        raise ValueError(f"need 0 < k < m, got k={k}, m={m}")
    gap = 1.0 - math.cos(2.0 * math.pi * k / m)
    return math.exp(-constants.c * gap * mertens)


def predicted_bound(m: int, x: float) -> float:
    """x / (log x)^A: the growth envelope for the class-count error terms."""
    if x <= 1:
        raise ValueError(f"x must be > 1, got {x}")
    return x / math.log(x) ** hall_constants(m).a_exponent
