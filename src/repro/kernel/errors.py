"""Exception hierarchy for the simulation kernel.

Every kernel-level error derives from :class:`KernelError` so callers can
distinguish substrate failures from fault-tolerance-level conditions (which
live in ``repro.ftm.errors`` and ``repro.core.errors``).
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for all simulation-kernel errors."""


class SimulationError(KernelError):
    """The simulator was driven incorrectly (bad yield, double run, ...)."""


class ProcessInterrupted(KernelError):
    """Raised *inside* a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.kernel.sim.Process.interrupt`.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class ProcessKilled(KernelError):
    """Raised inside a process whose host node crashed.

    Unlike :class:`ProcessInterrupted`, a kill is not catchable progress:
    well-behaved processes must not swallow it.
    """


class NodeDown(KernelError):
    """An operation was attempted on a crashed node."""

    def __init__(self, node_name: str, operation: str = "operation"):
        super().__init__(f"{operation} on crashed node {node_name!r}")
        self.node_name = node_name
        self.operation = operation


class NetworkUnreachable(KernelError):
    """No link exists between two nodes (an unknown node)."""

    def __init__(self, source: str, destination: str):
        super().__init__(f"no route from {source!r} to {destination!r}")
        self.source = source
        self.destination = destination
