"""Exception types shared across the package, and the integer check."""

import math
import operator


class MagicSudokuError(Exception):
    """Base class for all errors raised by this package."""


class BoardFormatError(MagicSudokuError):
    """Malformed board text or binary data (wrong length, bad framing)."""


class DigitError(MagicSudokuError):
    """A cell value outside the digit range 0..8."""


class StructureError(MagicSudokuError):
    """A block or board lacks the structure an operation requires."""


class DomainError(MagicSudokuError):
    """An argument outside an operation's documented domain."""


class IntegrityError(MagicSudokuError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class CapacityError(MagicSudokuError):
    """A computation exceeded a configured size cap."""


def _in_range(value: object, message: str, low: float = 0, high: float = math.inf) -> int:
    """value as an int, if operator.index takes it (a numpy integer too)
    and it lies in low..high; else DomainError(message)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(message) from None
    if not low <= value <= high:
        raise DomainError(message)
    return value
