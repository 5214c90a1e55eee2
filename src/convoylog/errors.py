"""Error types shared across the package.

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
