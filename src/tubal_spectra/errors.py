"""Exception types shared across the package.

All structured numerical failures derive from ``TubalError`` so callers can
distinguish them from programming errors.  Shape problems derive from
``ShapeError`` (with ``DimensionMismatch`` reserved for tube-length
disagreements) so command-line code can map them to usage errors.
"""


class TubalError(Exception):
    """Base class for structured errors raised by this package."""


class ShapeError(TubalError):
    """Operands have malformed or incompatible shapes."""


class DimensionMismatch(ShapeError):
    """Tube operands differ in length or do not match a matrix dimension."""


class NotBlockCirculant(TubalError):
    """A matrix expected to be block circulant is not, within tolerance."""


class NotTSymmetric(TubalError):
    """A tensor expected to equal its transpose does not, within tolerance."""


class ZeroMatrix(TubalError):
    """An operation that normalizes by a matrix norm received a zero matrix."""
