"""Distribution of Omega(n) -- the number of prime factors counted with
multiplicity -- over residue classes mod m.

The package sieves Omega exactly in segments, keeps the class counts as
exact integers, derives the unit-root character sums from them through the
finite Fourier transform, evaluates the closed-form constants of the
mean-value decay bound, tracks the error terms m*N_j(x) - x at geometric
checkpoints, numerically checks the Dirichlet-series identities the twists
satisfy, and scans sign changes in the race between two residue classes.
"""

from .dirichlet import (
    DirichletEvaluation,
    IdentityReport,
    check_g_product,
    check_identity_product,
    check_lquo,
    euler_G,
    euler_L,
    truncated_L,
    zeta_ref,
)
from .errorterms import (
    DEFAULT_RATIO,
    CheckpointSeries,
    ErrorCheckpoint,
    GrowthFit,
    InsufficientDataError,
    character_growth_exponent,
    checkpoint,
    checkpoint_schedule,
    growth_exponent,
    record_many,
)
from .hall import (
    HallConstants,
    hall_constants,
    hall_rhs,
    hull_perimeter,
    mertens_sum,
    predicted_bound,
)
from .race import RaceEvent, RaceSummary, all_pairs, race_scan
from .residues import (
    CharacterSumSet,
    InconsistentTransformError,
    ResidueTally,
    counts_from_sums,
    inverse_residuals,
    new_tally,
    root_table,
    sums_from_counts,
    tally_segment,
)
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    OmegaSegment,
    PrimeTable,
    iter_segments,
    omega_block,
    omega_single,
    primes_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterSumSet",
    "CheckpointSeries",
    "DEFAULT_RATIO",
    "DEFAULT_SEGMENT_SIZE",
    "DirichletEvaluation",
    "ErrorCheckpoint",
    "GrowthFit",
    "HallConstants",
    "IdentityReport",
    "InconsistentTransformError",
    "InsufficientDataError",
    "OmegaSegment",
    "PrimeTable",
    "RaceEvent",
    "RaceSummary",
    "ResidueTally",
    "all_pairs",
    "character_growth_exponent",
    "check_g_product",
    "check_identity_product",
    "check_lquo",
    "checkpoint",
    "checkpoint_schedule",
    "counts_from_sums",
    "euler_G",
    "euler_L",
    "growth_exponent",
    "hall_constants",
    "hall_rhs",
    "hull_perimeter",
    "inverse_residuals",
    "iter_segments",
    "mertens_sum",
    "new_tally",
    "omega_block",
    "omega_single",
    "predicted_bound",
    "primes_up_to",
    "race_scan",
    "record_many",
    "root_table",
    "sums_from_counts",
    "tally_segment",
    "truncated_L",
    "zeta_ref",
]
