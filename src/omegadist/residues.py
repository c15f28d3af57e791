"""Residue-class tallies of Omega(n) and the unit-root character sums they
determine.

A ResidueTally holds the exact integer counts of n with Omega(n) = j (mod m)
over a range.  The character sums S_k(x) = sum_{n<=x} zeta_m^(k*Omega(n)) are
never accumulated per n in floating point: they are always derived from the
integer tally through the finite Fourier transform, and the inverse transform
recovers the tally bit for bit (up to the documented rounding tolerance).

Every count is a 64-bin Omega histogram from sieve.omega_counts folded
onto the classes by sieve.fold_classes, the one such fold: tally_segment
folds a segment's cached histogram (so its values must not change after
its first tally), and errorterms.record_many the cumulative histogram at
each checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# iter_segments is not called here, but perfbench/spans.py patches
# residues.iter_segments when it traces a run, so the name stays bound.
from .sieve import OmegaSegment, fold_classes, iter_segments  # noqa: F401

#: Inverse-transform results farther than this from integers (or from the
#: real axis) indicate corrupted input and raise InconsistentTransformError.
ROUNDING_TOLERANCE = 1e-6


class InconsistentTransformError(ArithmeticError):
    """Inverse transform did not land on integers: the sums are not the
    forward transform of any genuine tally, or were corrupted in transit."""


def root_table(m: int) -> np.ndarray:
    """powers[r] = exp(2*pi*i*r/m), the m-th roots of unity; powers[0] is 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    theta = 2.0 * np.pi * np.arange(m) / m
    powers = np.cos(theta) + 1j * np.sin(theta)
    # Snap the cardinal points: the k = 0 character must sum counts without
    # floating drift, and the half/quarter turns (the classical +-1, +-i
    # cases) should not carry sin(pi)-sized dust.
    powers[0] = 1.0
    if m % 2 == 0:
        powers[m // 2] = -1.0
    if m % 4 == 0:
        powers[m // 4] = 1.0j
        powers[3 * m // 4] = -1.0j
    return powers


@dataclass
class ResidueTally:
    """counts[j] = #{n in [lo, x] : Omega(n) = j (mod m)}.

    The normal case is lo = 1, a tally of 1..x.  A tally with lo > 1 is a
    window: it counts an interior range [lo, x] fed segment by segment from
    lo, as when blocks far from 1 are sieved on their own.  A tally with
    x < lo is empty.
    """

    m: int
    x: int
    counts: np.ndarray
    lo: int = 1


def new_tally(m: int, lo: int = 1) -> ResidueTally:
    """Empty tally anchored at lo (x = lo - 1, all counts zero)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    return ResidueTally(m=m, x=lo - 1, counts=np.zeros(m, dtype=np.int64), lo=lo)


def tally_segment(tally: ResidueTally, segment: OmegaSegment) -> ResidueTally:
    """Fold one sieve segment into the tally, in place.

    Segments must hold every n, len(values) == hi - lo, and arrive
    contiguously: segment.lo == tally.x + 1.  The segment's cached
    histogram is folded by fold_classes, never by per-n division, so
    tallying one segment for k moduli costs one pass over its values and
    k folds of 64 bins.
    """
    if len(segment.values) != segment.hi - segment.lo:
        raise ValueError(
            f"a tally needs every n, got {len(segment.values)} values "
            f"for [{segment.lo}, {segment.hi})"
        )
    if segment.lo != tally.x + 1:
        raise ValueError(
            f"segment starts at {segment.lo} but tally ends at {tally.x}"
        )
    tally.counts += fold_classes(segment.histogram, tally.m)
    tally.x = segment.hi - 1
    return tally


def sums_from_counts(tally: ResidueTally) -> np.ndarray:
    """Forward transform: sums[k] = S_k(x) = sum_j zeta_m^(j*k) * counts[j].

    sums[0] always equals x exactly: the k = 0 weights are exactly 1 and the
    counts are integers below 2**53.
    """
    if tally.lo != 1:
        raise ValueError("character sums are defined for tallies anchored at 1")
    m = tally.m
    jk = np.outer(np.arange(m), np.arange(m)) % m
    return root_table(m)[jk] @ tally.counts.astype(np.complex128)


def _inverse(sums: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The pre-rounding inverse transform, with the largest distance of its
    real parts from integers and its largest absolute imaginary part."""
    m = len(sums)
    jk = (-np.outer(np.arange(m), np.arange(m))) % m
    raw = root_table(m)[jk] @ sums / m
    worst_real = float(np.max(np.abs(raw.real - np.rint(raw.real))))
    return raw, worst_real, float(np.max(np.abs(raw.imag)))


def inverse_residuals(sums: np.ndarray) -> tuple[float, float]:
    """Pre-rounding quality of the inverse transform.

    Returns (max distance of the real parts from integers, max absolute
    imaginary part).  Both are ~1e-10 for genuine sums at any realistic x.
    """
    return _inverse(sums)[1:]


def counts_from_sums(sums: np.ndarray) -> ResidueTally:
    """Inverse transform: counts[j] = round((1/m) sum_k zeta_m^(-j*k) sums[k])
    with m = len(sums); the recovered tally's x is the sum of its counts.

    Raises InconsistentTransformError if any pre-rounding value sits farther
    than ROUNDING_TOLERANCE from an integer, or off the real axis by more.
    """
    raw, worst_real, worst_imag = _inverse(sums)
    if worst_imag > ROUNDING_TOLERANCE:
        raise InconsistentTransformError(
            f"imaginary residue {worst_imag:.3e} exceeds {ROUNDING_TOLERANCE:.1e}"
        )
    if worst_real > ROUNDING_TOLERANCE:
        raise InconsistentTransformError(
            f"rounding residue {worst_real:.3e} exceeds {ROUNDING_TOLERANCE:.1e}"
        )
    counts = np.rint(raw.real).astype(np.int64)
    return ResidueTally(m=len(sums), x=int(counts.sum()), counts=counts)
