"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error records without matching on message text.
"""

from __future__ import annotations


class TolerantError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class FieldMismatchError(TolerantError):
    code = "FIELD_MISMATCH"


class DivisionByZeroError(TolerantError, ZeroDivisionError):
    code = "DIVISION_BY_ZERO"


class UnsupportedFieldError(TolerantError):
    code = "UNSUPPORTED_FIELD"


class ZeroScaleError(TolerantError):
    code = "ZERO_SCALE"


class ZeroConstantTermError(TolerantError):
    code = "ZERO_CONSTANT_TERM"


class ConstantInputError(TolerantError):
    code = "CONSTANT_INPUT"


class ZeroInputError(TolerantError):
    code = "ZERO_INPUT"


class DegreeTooSmallError(TolerantError):
    code = "DEGREE_TOO_SMALL"


class ZeroPolynomialError(TolerantError):
    code = "ZERO_POLYNOMIAL"


class DuplicateRootsError(TolerantError):
    code = "DUPLICATE_ROOTS"


class DegreeMismatchError(TolerantError):
    code = "DEGREE_MISMATCH"


class InvalidFactorizationError(TolerantError):
    code = "INVALID_FACTORIZATION"


class InseparableInSeparableModeError(TolerantError):
    code = "INSEPARABLE_IN_SEPARABLE_MODE"


class ZeroDiscriminantFactorError(TolerantError):
    code = "ZERO_DISCRIMINANT_FACTOR"


class ParseError(TolerantError):
    """Malformed expression text.  ``position`` is a 0-based offset."""

    code = "SYNTAX_ERROR"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class FieldLiteralError(ParseError):
    """Literal that is not a valid element of the target field."""

    code = "FIELD_LITERAL_ERROR"


class InputTooLargeError(ParseError):
    """Input whose degree would pass the parser's cap."""

    code = "INPUT_TOO_LARGE"
