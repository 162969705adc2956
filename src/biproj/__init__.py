"""Points on a grid of lines in a smooth quadric surface.

Models reduced zero-dimensional subschemes of P^1 x P^1 supported on a grid
of (1,0)- and (0,1)-lines: bigraded Hilbert matrices and their first
differences, the staircase test for the arithmetically Cohen-Macaulay
property, split separators of points, and bigraded minimal free resolutions
built either combinatorially from the staircase or by removing interior
points via iterated mapping cones.  Everything is double-checked by an
exact-arithmetic rank/Koszul-homology oracle.

The fields and oracle modules, which need numpy, load on first use of one
of their names (PEP 562), so the combinatorial part runs without numpy.
"""

from importlib import import_module as _import_module

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

# name -> the submodule that defines it (or the submodule itself)
_LAZY = {"fields": "fields", "oracle": "oracle"}
_LAZY.update(dict.fromkeys(
    ("GFP", "QQ", "PrimeField", "Rationals", "default_field", "field_by_name"), "fields"))
_LAZY.update(dict.fromkeys(
    ("betti_oracle", "drop_sets", "hilbert_oracle", "separating_degree_oracle",
     "verify_separator"), "oracle"))

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted((set(globals()) | set(_LAZY))
                  - {"_LAZY", "_import_module", "__getattr__", "__dir__"})
