"""Exceptions of the fault-tolerance design-pattern framework."""

from __future__ import annotations


class PatternError(Exception):
    """Base class for pattern-framework errors."""


class UnmaskedFaultError(PatternError):
    """A fault occurred that the mechanism could not mask.

    E.g. Time Redundancy saw three pairwise-different results.
    """


class AssertionFailedError(PatternError):
    """The safety assertion rejected a computed result (and no fallback won)."""


class NoPeerError(PatternError):
    """A duplex operation needed a peer replica but none is connected/alive."""


class NotMasterError(PatternError):
    """A client request reached a replica that is not the master."""
