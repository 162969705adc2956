"""Points on a grid of lines in a smooth quadric surface.

Models reduced zero-dimensional subschemes of P^1 x P^1 supported on a grid
of (1,0)- and (0,1)-lines: bigraded Hilbert matrices and their first
differences, the staircase test for the arithmetically Cohen-Macaulay
property, split separators of points, and bigraded minimal free resolutions
built either combinatorially from the staircase or by removing interior
points via iterated mapping cones.  Everything is double-checked by an
exact-arithmetic rank/Koszul-homology oracle.
"""

from .errors import (
    BadField,
    BiprojError,
    CollinearRemoval,
    InvalidGrid,
    InvalidMatrix,
    NonPositiveEntry,
    NotACM,
    NotInterior,
    OracleInconsistency,
    PointNotInScheme,
    ResolutionInconsistency,
    VerificationMismatch,
)
from .fields import GFP, QQ, PrimeField, Rationals, default_field, field_by_name
from .grid import (
    NormalizedGrid,
    PointClass,
    PointGrid,
    PointKind,
    ValidationReport,
    classify_points,
    corners_and_vertices,
    is_acm,
    is_staircase,
    normalize,
    staircase,
    validate,
)
from .hilbert import (
    DeltaMatrix,
    HilbertMatrix,
    accumulate,
    check_T0,
    delta,
    delta_corners_vertices,
    hilbert_acm,
    puncture_hilbert,
)
from .oracle import (
    betti_oracle,
    drop_sets,
    hilbert_oracle,
    separating_degree_oracle,
    verify_separator,
)
from .resolution import (
    BettiTable,
    ConditionReport,
    RemovalPlan,
    RemovalResult,
    Separator,
    acm_resolution,
    betti_diff,
    betti_from_delta,
    check_mapping_cone_conditions,
    removal_plan,
    remove_points,
    separator_for,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
