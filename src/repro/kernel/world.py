"""The :class:`World` — one fully wired simulated platform.

Bundles the simulator, trace, cluster, network, fault injector and stable
storage, which otherwise must be threaded through every constructor.  All
examples, tests and ``bench/`` workloads start from ``World(seed=...)``.

A world has one lifecycle: *build* it (``World(seed)`` plus
``add_nodes``), *run* it (:meth:`World.run_scenario`, or a world and its
generator as a :class:`WorldTask` under :func:`run_solo`), *close* it
(:meth:`World.close`, which :func:`run_solo` always calls).  Every
mission gets its own world; nothing is rewound or reused.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.errors import SimulationError
from repro.kernel.faults import FaultInjector
from repro.kernel.network import Network
from repro.kernel.node import Cluster, Node
from repro.kernel.sim import Simulator, harvest_event_attribution
from repro.kernel.storage import StableStorage
from repro.kernel.trace import Trace


class World:
    """A simulated distributed platform."""

    def __init__(self, seed: int = 0, costs: CostModel = DEFAULT_COSTS):
        self.sim = sim = Simulator(seed=seed)
        # the clocks close over the simulator, not the world: the world
        # must not sit on a reference cycle of its own making
        self.trace = Trace(clock=lambda: sim.now)
        self.costs = costs
        self.cluster = Cluster(sim, self.trace, costs)
        self.network = Network(sim, self.trace, costs)
        self.faults = FaultInjector(sim, self.trace, self.cluster, self.network)
        self.storage = StableStorage(self.trace, clock=lambda: sim.now)
        self.seed = seed
        #: Per-node component runtimes (see :meth:`runtime_for`), by name.
        self._runtimes: Dict[str, object] = {}

    @property
    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:
        """End this world's life — the one teardown every mission ends with.

        Folds the simulator's event counters into the process-wide
        accumulator, kills what still runs, and drops every reference
        the kernel layer holds into the finished mission or back onto
        itself: trace records, subscribers and listeners, storage
        contents, node hooks and process lists, mailboxes, the network's
        bound delivery callback.  Then each
        component runtime dismantles the components it installed.  What
        is kept is acyclic, so the world and its mission — processes,
        frames, events, trace, components — are freed by reference
        counting as the caller lets go, and the cyclic collector finds
        nothing.  Idempotent; :attr:`now` keeps the time the world ended
        at.
        """
        harvest_event_attribution(self.sim)
        self.sim.drain()
        self.trace.records.clear()
        self.trace._subscribers.clear()
        self.trace._listeners.clear()
        self.storage._data.clear()
        self.storage._logs.clear()
        for node in self.cluster.nodes.values():
            node.processes.clear()
            node._crash_hooks.clear()
            node._restart_hooks.clear()
        self.network._mailboxes.clear()
        self.network._deliver_cb = None
        for runtime in self._runtimes.values():
            runtime.dismantle()

    def runtime_for(self, node):
        """The component runtime hosting assemblies on ``node``.

        One :class:`~repro.components.runtime.ComponentRuntime` per node
        per world, built on first use: every deployment on a node shares
        it, and with it the node's one crash hook.
        """
        runtime = self._runtimes.get(node.name)
        if runtime is None:
            from repro.components.runtime import make_runtime

            runtime = make_runtime(self, node)
            self._runtimes[node.name] = runtime
        return runtime

    def add_node(self, name: str, cpu_speed: float = 1.0) -> Node:
        """Create a node and attach it to the network."""
        node = self.cluster.add_node(name, cpu_speed)
        self.network.join(node)
        return node

    def add_nodes(self, names: List[str]) -> List[Node]:
        """Create several nodes at once, in the given order."""
        return [self.add_node(name) for name in names]

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (optionally stopping at ``until``)."""
        return self.sim.run(until=until)

    def run_process(self, gen, name: str = "main"):
        """Spawn a process, run until it finishes, return its result."""
        return self.sim.run_process(gen, name=name)

    def run_scenario(self, scenario, nodes: Sequence[str] = (),
                     name: str = "scenario"):
        """Add ``nodes``, drive ``scenario`` to completion, return its result.

        The one-call form of the setup/drive boilerplate every experiment
        repeats: ``scenario`` is either a ready generator or a callable
        taking the world and returning one (so measurement code can close
        over the world without naming it twice)::

            world = World(seed=seed)
            report = world.run_scenario(
                lambda w: deploy_ftm_pair(w, "pbr", ["alpha", "beta"]),
                nodes=("alpha", "beta"))

        Nodes are created before the scenario starts, in the given order —
        exactly equivalent to ``add_nodes`` followed by ``run_process``.
        """
        if nodes:
            self.add_nodes(list(nodes))
        gen = scenario(self) if callable(scenario) else scenario
        return self.run_process(gen, name=name)


class WorldTask:
    """One world plus the process that drives it to completion.

    The task's *result* is the driving process's return value.  Creating
    a task spawns the process but runs none of its code — execution
    happens under :func:`run_solo`.
    """

    __slots__ = ("world", "process", "name")

    def __init__(self, world: World, gen: Generator, name: str = "scenario"):
        self.world = world
        self.name = name
        self.process = world.sim.spawn(gen, name=name)

    @property
    def done(self) -> bool:
        """Has the driving process terminated (successfully or not)?"""
        return self.process.terminated.triggered

    def result(self) -> Any:
        """The driving process's return value; re-raises its failure."""
        if not self.done:
            raise SimulationError(f"task {self.name!r} has not finished")
        if self.process.exception is not None:
            raise self.process.exception
        return self.process.result


def run_solo(task: WorldTask) -> Any:
    """Drive one task to completion, close its world, return its result.

    Drives exactly as :meth:`Simulator.run_process` would — until the
    task process terminates; a failing task raises, a world going idle
    before its task finished raises :class:`SimulationError` (deadlock).
    The world is closed whichever way the task ends.
    """
    try:
        task.world.sim.advance(task.process.terminated)
        if not task.done:
            raise SimulationError(
                f"task {task.name!r} never terminated (deadlock?)"
            )
        return task.result()
    finally:
        task.world.close()
