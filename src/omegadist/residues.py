"""Residue-class tallies of Omega(n) and the unit-root character sums they
determine.

A ResidueTally holds the exact integer counts of n with Omega(n) = j (mod m)
over a range.  The character sums S_k(x) = sum_{n<=x} zeta_m^(k*Omega(n)) are
never accumulated per n in floating point: they are always derived from the
integer tally through the finite Fourier transform, and the inverse transform
recovers the tally bit for bit (up to the documented rounding tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, OmegaSegment, PrimeTable, iter_segments

#: Inverse-transform results farther than this from integers (or from the
#: real axis) indicate corrupted input and raise InconsistentTransformError.
ROUNDING_TOLERANCE = 1e-6


class InconsistentTransformError(ArithmeticError):
    """Inverse transform did not land on integers: the sums are not the
    forward transform of any genuine tally, or were corrupted in transit."""


@dataclass(frozen=True)
class RootTable:
    """Precomputed m-th roots of unity: powers[r] = exp(2*pi*i*r/m)."""

    m: int
    powers: np.ndarray


def root_table(m: int) -> RootTable:
    """Build the m-th root table; powers[0] is exactly 1."""
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
    return RootTable(m=m, powers=powers)


def lambda_value(omega: int, m: int, k: int, roots: RootTable | None = None) -> complex:
    """zeta_m^(k*omega), the completely multiplicative unit-root twist
    evaluated from a known Omega value."""
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    roots = _roots_for(m, roots)
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    return complex(roots.powers[(k * omega) % m])


def residue_lut(m: int) -> np.ndarray:
    """lut[w] = w mod m for every 8-bit Omega value w (Omega(n) < 64)."""
    return np.arange(64, dtype=np.intp) % m


def fold_counts(values: np.ndarray, class_counts: Iterable[np.ndarray]) -> None:
    """Add the residue-class counts of a slice of Omega values into each
    array of class_counts, in place, modulo that array's length.

    One 64-bin histogram of the slice serves every modulus, so the cost per
    extra modulus is ~64 adds, not another pass over the values.
    """
    hist = np.bincount(values, minlength=64).astype(np.int64)
    for counts in class_counts:
        np.add.at(counts, residue_lut(len(counts)), hist)


@dataclass
class ResidueTally:
    """counts[j] = #{n in [lo, x] : Omega(n) = j (mod m)}.

    The normal case is lo = 1, a tally of 1..x.  Tallies with lo > 1 act as
    deltas over an interior range, so disjoint blocks can be tallied
    independently and merged; a tally with x < lo is empty.
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

    Segments must arrive contiguously: segment.lo == tally.x + 1.  Residues
    are taken from the 8-bit Omega values through a 64-entry lookup, never by
    per-n division.
    """
    if segment.lo != tally.x + 1:
        raise ValueError(
            f"segment starts at {segment.lo} but tally ends at {tally.x}"
        )
    fold_counts(segment.values, [tally.counts])
    tally.x = segment.hi - 1
    return tally


def merge(a: ResidueTally, b_delta: ResidueTally) -> ResidueTally:
    """Combine tallies of adjacent ranges into one.

    b_delta must tally the range immediately following a's; an empty tally
    merges as the identity from either side.  Counts simply add.
    """
    if a.m != b_delta.m:
        raise ValueError(f"modulus mismatch: {a.m} != {b_delta.m}")
    if b_delta.x < b_delta.lo:  # empty delta
        return ResidueTally(m=a.m, x=a.x, counts=a.counts.copy(), lo=a.lo)
    if a.x < a.lo:  # empty accumulator adopts the delta
        return ResidueTally(
            m=a.m, x=b_delta.x, counts=b_delta.counts.copy(), lo=b_delta.lo
        )
    if b_delta.lo != a.x + 1:
        raise ValueError(
            f"ranges not adjacent: [{a.lo}, {a.x}] then [{b_delta.lo}, {b_delta.x}]"
        )
    return ResidueTally(m=a.m, x=b_delta.x, counts=a.counts + b_delta.counts, lo=a.lo)


def tally_range(
    m: int,
    x_max: int,
    *,
    table: PrimeTable | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> ResidueTally:
    """Tally 1..x_max in one streaming pass."""
    tally = new_tally(m)
    for segment in iter_segments(
        x_max, table=table, segment_size=segment_size, workers=workers
    ):
        tally_segment(tally, segment)
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


def _roots_for(m: int, roots: RootTable | None) -> RootTable:
    if roots is None:
        return root_table(m)
    if roots.m != m:
        raise ValueError(f"root table is for modulus {roots.m}, need {m}")
    return roots


def sums_from_counts(tally: ResidueTally, roots: RootTable | None = None) -> CharacterSumSet:
    """Forward transform: sums[k] = sum_j zeta_m^(j*k) * counts[j]."""
    if tally.lo != 1:
        raise ValueError("character sums are defined for tallies anchored at 1")
    roots = _roots_for(tally.m, roots)
    m = tally.m
    jk = np.outer(np.arange(m), np.arange(m)) % m
    sums = roots.powers[jk] @ tally.counts.astype(np.complex128)
    return CharacterSumSet(m=m, x=tally.x, sums=sums)


def _inverse_raw(sums: CharacterSumSet, roots: RootTable | None) -> np.ndarray:
    roots = _roots_for(sums.m, roots)
    m = sums.m
    jk = (-np.outer(np.arange(m), np.arange(m))) % m
    return roots.powers[jk] @ sums.sums / m


def inverse_residuals(sums: CharacterSumSet, roots: RootTable | None = None) -> tuple[float, float]:
    """Pre-rounding quality of the inverse transform.

    Returns (max distance of the real parts from integers, max absolute
    imaginary part).  Both are ~1e-10 for genuine sums at any realistic x.
    """
    raw = _inverse_raw(sums, roots)
    return (
        float(np.max(np.abs(raw.real - np.rint(raw.real)))),
        float(np.max(np.abs(raw.imag))),
    )


def counts_from_sums(sums: CharacterSumSet, roots: RootTable | None = None) -> ResidueTally:
    """Inverse transform: counts[j] = round((1/m) sum_k zeta_m^(-j*k) sums[k]).

    Raises InconsistentTransformError if any pre-rounding value sits farther
    than ROUNDING_TOLERANCE from an integer, or off the real axis by more.
    """
    raw = _inverse_raw(sums, roots)
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
