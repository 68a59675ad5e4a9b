"""Exception types shared across the package."""


class WeylError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(WeylError, ValueError):
    """Construction data is invalid (negative exponent, zero denominator, ...)."""


class UndefinedOnZeroError(WeylError, ValueError):
    """An operation that requires a nonzero element was given zero."""


class WrongSectorError(WeylError, ValueError):
    """The element lies outside the sector the operation is defined on."""


class NotHomogeneousError(WeylError, ValueError):
    """A homogeneous element was required."""


class BoundError(WeylError, ValueError):
    """The requested total-degree bound is too small for the computation."""


class SizeLimitError(WeylError, ValueError):
    """An input or result exceeds a documented size limit of the command line."""


class BoundEscapeError(WeylError, RuntimeError):
    """A derived element left the total-degree bound of the computed span.

    The caller should recompute with a larger bound.
    """


class MembershipError(WeylError, ValueError):
    """The element does not lie in the span it was claimed to belong to."""


class NotDixmierPairError(WeylError, ValueError):
    """The commutator of the given elements is not 1."""


class InternalInconsistencyError(WeylError, RuntimeError):
    """A mathematically guaranteed identity failed; this always indicates a bug."""


class ExprSyntaxError(WeylError, ValueError):
    """Surface-syntax parse failure, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"syntax error at line {line}, column {column}: {message}")
        self.line = line
        self.column = column
