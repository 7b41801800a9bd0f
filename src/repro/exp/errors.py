"""Errors raised by the experiment runtime layer."""

from __future__ import annotations


class ExperimentError(Exception):
    """Base class for experiment-layer failures."""


class SpecError(ExperimentError):
    """An :class:`~repro.exp.spec.ExperimentSpec` is malformed."""


class ResultTypeError(ExperimentError):
    """A trial returned a value the result store cannot serialise."""


class DistributedError(ExperimentError):
    """The remote backend cannot complete the plan (all workers lost,
    protocol violation, or a worker reported a trial failure)."""
