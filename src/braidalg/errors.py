"""Exception types shared across the package."""


class BraidAlgError(Exception):
    """Base class for all braidalg errors."""


class FieldMismatch(BraidAlgError):
    """Operands live over different fields."""


class ShapeError(BraidAlgError):
    """Matrix dimensions are incompatible with the requested operation."""


class NotInvertible(BraidAlgError):
    """A matrix or scalar required to be invertible is singular."""


class LinearSolveError(BraidAlgError):
    """An exact linear system has no solution or no unique solution."""


class SpecViolation(BraidAlgError):
    """A construction hypothesis failed; the message names the equation."""


class NotClosedUnderBraiding(BraidAlgError):
    """The braiding does not restrict to the primitive subspace."""


class NotAMorphism(BraidAlgError):
    """A map fails one of the structure-morphism conditions; the message names it."""


class TruncationOverflow(BraidAlgError):
    """A product would exceed the truncation degree."""


class BadTruncation(BraidAlgError):
    """Truncation degree below 1."""


class BadDegree(BraidAlgError):
    """Requested degree outside the stored range."""
