"""Exception hierarchy shared across the package.

Two broad families matter to callers: validation problems (bad schema,
bad config, violated preconditions -- the caller handed us something
malformed) and computation problems (degenerate statistics, failed
convergence -- the inputs were well-formed but the math cannot proceed).
The CLI maps the former to exit code 2 and the latter to exit code 1.

A bounded real setting is checked by ``require_number`` with its interval
written as the message prints it -- ``"(0, 1)"``, ``"[0, 0.5]"``,
``"[0, inf)"``; a bracket closes an end, a parenthesis opens it -- and a
value outside reads ``<name> must be in <interval>, got <value!r>``.
"""

import numbers
import sys


class ScreenfitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ScreenfitError):
    """Malformed input: schema mismatch, bad config value, precondition violation."""


class CellParseError(ValidationError):
    """A CSV cell could not be parsed under its column kind."""

    def __init__(self, row: int, column: str, token: str, reason: str):
        self.row = row
        self.column = column
        self.token = token
        super().__init__(
            f"row {row}, column {column!r}: cannot parse {token!r} ({reason})"
        )


class ComputationError(ScreenfitError):
    """Well-formed input on which the computation is degenerate or fails."""


def require_whole(name: str, value, minimum: int) -> None:
    """Raise ValidationError unless value is an integer, not a bool, >= minimum."""
    # the exact-type test spares the common case the slower ABC check
    whole = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if not whole or value < minimum:
        raise ValidationError(f"{name} must be a whole number >= {minimum}, got {value!r}")


def require_string(name: str, value) -> None:
    """Raise ValidationError unless value is a string."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")


def require_number(name: str, value, interval: str | None = None) -> None:
    """Raise ValidationError unless value is a real number, not a bool, finite
    as a float and, when an interval such as "[0, 1)" is given, inside it."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # NaN fails the comparison, and so does an integer too large for a float.
    if not (real and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if interval is not None:
        low, high = map(float, interval[1:-1].split(","))
        above = low < value if interval[0] == "(" else low <= value
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise ValidationError(f"{name} must be in {interval}, got {value!r}")
