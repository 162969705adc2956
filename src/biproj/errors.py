"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: InvalidGrid, InvalidMatrix
and friends are bad input (1), NotACM is 2, CollinearRemoval/NotInterior
are 3 and VerificationMismatch (and its OracleInconsistency and
ResolutionInconsistency) is 4.
"""


class BiprojError(Exception):
    """Base class for all library errors."""


class InvalidGrid(BiprojError):
    """A PointGrid (or configuration file) violates a structural invariant."""


class PointNotInScheme(BiprojError):
    """An operation referenced a grid position that carries no point."""


class NotACM(BiprojError):
    """The configuration is not arithmetically Cohen-Macaulay (no staircase form)."""


class CollinearRemoval(BiprojError):
    """Two removal-plan points share a row or a column."""


class NotInterior(BiprojError):
    """A removal-plan point is a boundary point of the scheme."""


class NonPositiveEntry(BiprojError):
    """Puncturing a Hilbert matrix would drive an entry below zero."""


class BadField(BiprojError):
    """Line parameters collide (or are undefined) in the requested field."""


class InvalidMatrix(BiprojError):
    """A Hilbert or first-difference matrix violates a structural invariant."""


class VerificationMismatch(BiprojError):
    """A combinatorial result disagrees with the oracle."""


class OracleInconsistency(VerificationMismatch):
    """The oracle's own linear algebra broke an invariant it relies on."""


class ResolutionInconsistency(VerificationMismatch):
    """The combinatorial resolution broke an invariant it relies on."""
