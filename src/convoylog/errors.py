"""Error types shared across the package, and the checks parameters share.

Every domain error derives from ConvoylogError so callers (notably the CLI)
can catch one base class and turn any rule, log, or scenario problem into a
diagnostic instead of a traceback.
"""

from __future__ import annotations


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


def check_threshold(value: float, name: str, *, zero_ok: bool = False) -> None:
    """ValueError unless value is above 0, or at least 0 when zero_ok, and
    not a bool (NaN fails both)."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if zero_ok and not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if not zero_ok and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_count(value: int, name: str) -> None:
    """ValueError unless value is an int, not a bool, and at least 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
