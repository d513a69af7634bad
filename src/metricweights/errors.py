"""Exception hierarchy.

Three families, each with the CLI exit code of its errors as ``exit_code``:

* ``DomainError`` (exit 2): invalid inputs or violated preconditions.
* ``ConvergenceError`` (exit 3): an iteration or search failed to settle.
* ``FormatError`` (exit 4): file parsing and serialization problems.
"""

from __future__ import annotations


class MetricWeightsError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class DomainError(MetricWeightsError):
    """Invalid input data or a violated precondition."""


class ConvergenceError(MetricWeightsError):
    """An iterative procedure did not converge within its budget."""

    exit_code = 3


class FormatError(MetricWeightsError):
    """A file could not be parsed or written in the expected format."""

    exit_code = 4


# -- space construction and validation --------------------------------------

class SizeOverflow(DomainError):
    """Requested structure exceeds the configured size cap."""


class NonpositiveMass(DomainError):
    """A point of a space file carries zero or negative mass."""


class GraphDisconnected(DomainError):
    """A graph space file whose edge graph is not connected."""


# -- subsets, functions, weights ---------------------------------------------

class EmptySubset(DomainError):
    """Subset has zero measure (no points)."""


class ZeroFunction(DomainError):
    """Function is identically zero where a nonzero one is required."""


class NonpositiveG(DomainError):
    """Multiplier g must be strictly positive and finite."""


class NonpositiveWeight(DomainError):
    """Weights must be strictly positive."""


class ExponentRange(DomainError):
    """Exponent outside the admissible range for this operation."""


class InvalidParameter(DomainError, ValueError):
    """A parameter outside its range (a tolerance, an eps grid) or a malformed
    argument (a wrong shape, a non-integer id); also a ValueError, so code that
    catches one still does."""


# -- iterations and searches ---------------------------------------------------

class NoConvergence(ConvergenceError):
    """Operator-bound doubling exhausted without a verified fixed point."""


class BudgetExceededAtZero(ConvergenceError):
    """No grid exponent, not even 0, meets the characteristic budget."""


# -- domains, covers, chains ---------------------------------------------------

class NotProper(DomainError):
    """Domain must be a nonempty proper subset of the space."""


class Unreachable(DomainError):
    """No chain of intersecting balls joins the two cover balls."""


class Disconnected(DomainError):
    """No admissible path joins the two points inside the domain."""


class PreconditionFail(DomainError):
    """Geometric precondition of the construction does not hold."""


class InclusionFail(DomainError):
    """Constructed ball failed its verified inclusion."""


# -- io -------------------------------------------------------------------------

class ParseError(FormatError):
    """Malformed file content."""


class VersionMismatch(FormatError):
    def __init__(self, found: object, expected: int) -> None:
        super().__init__(f"unsupported file version {found!r}, expected {expected}")
