"""Exception hierarchy shared across the package.

Two broad families matter to callers: validation problems (bad schema,
bad config, violated preconditions -- the caller handed us something
malformed) and computation problems (degenerate statistics, failed
convergence -- the inputs were well-formed but the math cannot proceed).
The CLI maps the former to exit code 2 and the latter to exit code 1.
"""

import numbers


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
