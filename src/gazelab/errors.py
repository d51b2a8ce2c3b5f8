"""Exception taxonomy shared across the package.

Four categories mirror the CLI exit-code scheme: parse failures (2),
domain-invariant violations (3), precondition failures (4) and
numerical breakdowns (5). The base class itself is raised only for a
fault outside the inputs (a worker process that died), and exits 1. A
check raises its category directly, with a message that names its
subject; a subclass exists only for fields that a caller reads
(``core.read_rows`` reads the ``reason`` and ``line`` of the two below).
"""

from __future__ import annotations


class GazeLabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GazeLabError):
    """Input bytes/text could not be decoded into records."""


class InvariantError(GazeLabError):
    """A decoded record or constructed value violates a domain invariant."""


class PreconditionError(GazeLabError):
    """An operation was called on inputs it is not defined for."""


class NumericError(GazeLabError):
    """A numerical routine diverged or hit a degenerate denominator."""


class MalformedRecord(ParseError):
    def __init__(self, reason: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{reason}")
        self.reason = reason
        self.line = line


class InvariantViolation(InvariantError):
    def __init__(self, reason: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{reason}")
        self.reason = reason
        self.line = line
