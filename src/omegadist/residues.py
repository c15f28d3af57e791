"""Residue-class tallies of Omega(n) and the unit-root character sums they
determine.

A ResidueTally holds the exact integer counts of n with Omega(n) = j (mod m)
over a range.  The character sums S_k(x) = sum_{n<=x} zeta_m^(k*Omega(n)) are
never accumulated per n in floating point: they are always derived from the
integer tally through the finite Fourier transform, and the inverse transform
recovers the tally bit for bit (up to the documented rounding tolerance).

Every count, the checkpointed error terms' included, comes from
tally_segment, which folds a segment's cached 64-bin Omega histogram into
the classes through a residue lookup: a segment tallied for many moduli is
read once, and its values must not change after its first tally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# iter_segments is not called here, but perfbench/spans.py patches
# residues.iter_segments when it traces a run, so the name stays bound.
from .sieve import OmegaSegment, iter_segments  # noqa: F401

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


def residue_lut(m: int) -> np.ndarray:
    """lut[w] = w mod m for every 8-bit Omega value w (Omega(n) < 64)."""
    return np.arange(64, dtype=np.intp) % m


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

    Segments must arrive contiguously: segment.lo == tally.x + 1.  The
    segment's cached histogram is folded through a 64-entry residue lookup,
    never by per-n division, so tallying one segment for k moduli costs one
    pass over its values and k folds of 64 adds.
    """
    if segment.lo != tally.x + 1:
        raise ValueError(
            f"segment starts at {segment.lo} but tally ends at {tally.x}"
        )
    np.add.at(tally.counts, residue_lut(tally.m), segment.histogram)
    tally.x = segment.hi - 1
    return tally


@dataclass(frozen=True)
class CharacterSumSet:
    """sums[k] = S_k(x) = sum_{n<=x} exp(2*pi*i*k*Omega(n)/m).

    sums[0] always equals x exactly: the k = 0 weights are exactly 1 and the
    counts are integers below 2**53.
    """

    m: int
    x: int
    sums: np.ndarray


def sums_from_counts(tally: ResidueTally) -> CharacterSumSet:
    """Forward transform: sums[k] = sum_j zeta_m^(j*k) * counts[j]."""
    if tally.lo != 1:
        raise ValueError("character sums are defined for tallies anchored at 1")
    m = tally.m
    jk = np.outer(np.arange(m), np.arange(m)) % m
    sums = root_table(m)[jk] @ tally.counts.astype(np.complex128)
    return CharacterSumSet(m=m, x=tally.x, sums=sums)


def _inverse_raw(sums: CharacterSumSet) -> np.ndarray:
    m = sums.m
    jk = (-np.outer(np.arange(m), np.arange(m))) % m
    return root_table(m)[jk] @ sums.sums / m


def inverse_residuals(sums: CharacterSumSet) -> tuple[float, float]:
    """Pre-rounding quality of the inverse transform.

    Returns (max distance of the real parts from integers, max absolute
    imaginary part).  Both are ~1e-10 for genuine sums at any realistic x.
    """
    raw = _inverse_raw(sums)
    return (
        float(np.max(np.abs(raw.real - np.rint(raw.real)))),
        float(np.max(np.abs(raw.imag))),
    )


def counts_from_sums(sums: CharacterSumSet) -> ResidueTally:
    """Inverse transform: counts[j] = round((1/m) sum_k zeta_m^(-j*k) sums[k]).

    Raises InconsistentTransformError if any pre-rounding value sits farther
    than ROUNDING_TOLERANCE from an integer, or off the real axis by more.
    """
    raw = _inverse_raw(sums)
    worst_imag = float(np.max(np.abs(raw.imag)))
    if worst_imag > ROUNDING_TOLERANCE:
        raise InconsistentTransformError(
            f"imaginary residue {worst_imag:.3e} exceeds {ROUNDING_TOLERANCE:.1e}"
        )
    rounded = np.rint(raw.real)
    worst_real = float(np.max(np.abs(raw.real - rounded)))
    if worst_real > ROUNDING_TOLERANCE:
        raise InconsistentTransformError(
            f"rounding residue {worst_real:.3e} exceeds {ROUNDING_TOLERANCE:.1e}"
        )
    return ResidueTally(m=sums.m, x=sums.x, counts=rounded.astype(np.int64))
