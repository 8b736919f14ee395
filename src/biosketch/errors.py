"""Exception types, and the integer-argument rule, shared across the package."""

from numbers import Integral


class BiosketchError(Exception):
    """Base class for all library-specific errors."""


class UnsupportedSymbolSizeError(BiosketchError, ValueError):
    """Symbol size m outside the supported 2..10 range."""


class NonPrimitivePolynomialError(BiosketchError, ValueError):
    """Field polynomial is not primitive of the required degree."""


class LengthMismatchError(BiosketchError, ValueError):
    """Bit or symbol sequence has the wrong length for the operation."""


class DimensionMismatchError(BiosketchError, ValueError):
    """Vector or matrix dimensions are inconsistent."""


class ParseError(BiosketchError, ValueError):
    """A serialized file or record could not be parsed."""


class InsufficientDataError(BiosketchError, ValueError):
    """Not enough subjects or samples for the requested statistic."""


class ParameterMismatchError(BiosketchError, ValueError):
    """Stored record parameters do not match the supplied code or probe."""


class EnrollmentDecodeError(BiosketchError):
    """Enrollment bits could not be decoded under the fail-deny policy."""


class SubjectNotFoundError(BiosketchError, KeyError):
    """No stored record or key for the requested subject."""


class DuplicateSubjectError(BiosketchError):
    """Subject already has a stored record or key and overwrite was not set."""


def check_int(value, low: int, high: float, message: str) -> int:
    """``value`` as an int if it is an integer in ``low``..``high``; a bool is
    not. Anything else raises ``ValueError(message)``."""
    if isinstance(value, Integral) and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    raise ValueError(message)
