"""Error types shared across the package, and the checks parameters share.

Every domain error derives from ConvoylogError so callers (notably the CLI)
can catch one base class and turn any rule, log, or scenario problem into a
diagnostic instead of a traceback.

This module alone decides which numbers are usable. A number is a real
(numbers.Real: an int, a float, a Fraction) that is not a bool and fits a
float. A coordinate or a time must also be finite (finite). A threshold
must be positive, or non-negative where zero is allowed, and may be
infinite (check_threshold). Whatever fails raises ValueError naming the
value, or the ConvoylogError of a module whose inputs are data (a scenario,
a log record), with the same message.
"""

from __future__ import annotations

from math import isfinite
from numbers import Real


class ConvoylogError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateBssidError(ConvoylogError):
    """A network snapshot listed the same access point twice."""


class NonMonotoneTimestampError(ConvoylogError):
    """A sample would break the strict time ordering of a device track."""


class UnknownDeviceError(ConvoylogError):
    """A query named a device that has no track in the log."""


class LogFormatError(ConvoylogError):
    """A serialized record could not be decoded.

    Carries the 1-based line number of the offending record when the input
    came from a line-oriented file.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyEnvironmentError(ConvoylogError):
    """A group query started from a snapshot with no visible networks."""


class InvalidScenarioError(ConvoylogError):
    """A simulation scenario failed validation."""


class RuleSyntaxError(ConvoylogError):
    """Rule text could not be parsed.

    Carries the 1-based line and column where parsing failed.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DuplicateRuleIdError(ConvoylogError):
    """Two rules in one ruleset share an identifier."""


def _number(value: float, name: str, error: type[Exception] = ValueError) -> float:
    """value as a float; error unless it is a number (module docstring)."""
    # float and int first: the abstract Real check costs several times more.
    if type(value) not in (float, int) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} out of float range") from None


def finite(value: float, name: str, error: type[Exception] = ValueError) -> float:
    """value as a float, for a coordinate or a time: error, naming it, unless
    it is a number (module docstring) and finite. A finite float comes back
    as is. A module whose inputs are data passes its own ConvoylogError."""
    x = value if type(value) is float else _number(value, name, error)
    if not isfinite(x):
        raise error(f"{name} must be finite, got {value!r}")
    return x


def check_threshold(value: float, name: str, *, zero_ok: bool = False) -> None:
    """ValueError unless value is a number (module docstring) above 0, or at
    least 0 when zero_ok; infinity passes, NaN fails both."""
    x = _number(value, name)
    if zero_ok and not x >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if not zero_ok and not x > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_count(value: int, name: str) -> None:
    """ValueError unless value is an int, not a bool, and at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
