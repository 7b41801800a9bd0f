"""Exceptions of the reconfiguration script engine."""

from __future__ import annotations


class ScriptError(Exception):
    """Base class for script-engine errors."""


class ScriptSyntaxError(ScriptError):
    """The script text does not parse."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScriptException(ScriptError):
    """A transactional reconfiguration failed and was rolled back.

    This mirrors FScript's ``ScriptException`` (paper Sec. 5.3): the
    architecture is back in its initial configuration when this is raised.
    The distributed wrapper turns it into a replica kill (fail-silent).
    """

    def __init__(self, message: str, statement_index: int, cause: Exception = None):
        super().__init__(
            f"reconfiguration failed at statement {statement_index}: {message}"
        )
        self.statement_index = statement_index
        self.cause = cause


class RollbackFailed(ScriptError):
    """Undoing a failed transaction itself failed — architecture corrupt.

    This should never happen; if it does, the replica must be killed
    unconditionally, which the adaptation engine's fail-silent wrapper does.
    """
