"""Simulation kernel: the distributed-platform substrate.

Public surface::

    from repro.kernel import World, Timeout, Event, Channel

    world = World(seed=42)
    alpha = world.add_node("alpha")

    def hello():
        yield alpha.compute_charge(5.0)
        return "done"

    result = world.run_process(hello())
"""

from repro.kernel.beats import BeatMonitor, BeatStream
from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.errors import (
    KernelError,
    NetworkUnreachable,
    NodeDown,
    ProcessInterrupted,
    ProcessKilled,
    SimulationError,
    StorageError,
)
from repro.kernel.faults import (
    TRANSITION_FAULT_KINDS,
    TRANSITION_PHASES,
    Corrupted,
    Fault,
    FaultInjector,
    bit_flip,
)
from repro.kernel.network import Link, Message, Network
from repro.kernel.node import Cluster, Node, NodeState
from repro.kernel.rand import DeterministicRandom
from repro.kernel.sim import (
    TIMEOUT,
    Channel,
    Event,
    Process,
    Simulator,
    Timeout,
    all_of,
    harvest_event_attribution,
    take_event_attribution,
)
from repro.kernel.storage import LogEntry, StableStorage
from repro.kernel.trace import Boundary, Trace, TraceRecord
from repro.kernel.world import World, WorldTask, run_solo


# ``bench/trace.py`` (frozen) imports these two names on every traced
# run; there is no arena, so they report and do nothing.
def world_arena_stats():
    """Zero lease counters."""
    return {"hits": 0, "misses": 0, "pooled": 0}


def clear_world_arena() -> None:
    """No-op."""


__all__ = [
    "CostModel",
    "DEFAULT_COSTS",
    "KernelError",
    "NetworkUnreachable",
    "NodeDown",
    "ProcessInterrupted",
    "ProcessKilled",
    "SimulationError",
    "StorageError",
    "TRANSITION_FAULT_KINDS",
    "TRANSITION_PHASES",
    "Corrupted",
    "Fault",
    "FaultInjector",
    "bit_flip",
    "BeatMonitor",
    "BeatStream",
    "Link",
    "Message",
    "Network",
    "Cluster",
    "Node",
    "NodeState",
    "DeterministicRandom",
    "TIMEOUT",
    "Channel",
    "Event",
    "Process",
    "Simulator",
    "Timeout",
    "all_of",
    "harvest_event_attribution",
    "take_event_attribution",
    "LogEntry",
    "StableStorage",
    "Boundary",
    "Trace",
    "TraceRecord",
    "World",
    "WorldTask",
    "run_solo",
    "clear_world_arena",
    "world_arena_stats",
]
