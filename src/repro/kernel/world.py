"""The :class:`World` — one fully wired simulated platform.

Bundles the simulator, trace, cluster, network, fault injector and stable
storage, which otherwise must be threaded through every constructor.  All
examples, tests and benchmarks start from ``World(seed=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.faults import FaultInjector
from repro.kernel.network import Network
from repro.kernel.node import Cluster, Node
from repro.kernel.sim import Simulator
from repro.kernel.storage import StableStorage
from repro.kernel.trace import Trace


def _per_node(value, names: Sequence[str], default, parameter: str) -> List:
    """Expand a scalar / sequence / mapping override to one value per node."""
    if isinstance(value, Mapping):
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise ValueError(
                f"{parameter} override names unknown nodes: {unknown}"
            )
        return [value.get(name, default) for name in names]
    if isinstance(value, (list, tuple)):
        if len(value) != len(names):
            raise ValueError(
                f"{parameter} sequence has {len(value)} entries "
                f"for {len(names)} nodes"
            )
        return list(value)
    return [value] * len(names)


@dataclass(frozen=True)
class WorldSnapshot:
    """What :meth:`World.snapshot` captured — the platform as wired.

    Holds the post-construction (typically post-``add_nodes``, pre-run)
    state every subsystem needs to rewind to: node configurations, the
    network topology, trace subscribers and storage contents.  Simulated
    dynamic state (event queues, processes, RNG positions, counters) is
    deliberately *not* captured: reset rebuilds it empty/reseeded, which
    is exactly what fresh construction produces.
    """

    node_states: Tuple[Tuple[str, tuple], ...]
    network_state: tuple
    storage_state: tuple
    trace_subscribers: tuple
    #: Records already traced when the snapshot was taken (wiring-time
    #: events like ``link_change``) — a fresh build would re-emit them,
    #: so reset restores them verbatim.  TraceRecords are immutable, so
    #: sharing the instances is safe.
    trace_records: tuple = ()


class World:
    """A simulated distributed platform."""

    def __init__(self, seed: int = 0, costs: CostModel = DEFAULT_COSTS):
        self.sim = Simulator(seed=seed)
        self.trace = Trace(clock=lambda: self.sim.now)
        self.costs = costs
        self.cluster = Cluster(self.sim, self.trace, costs)
        self.network = Network(self.sim, self.trace, costs)
        self.faults = FaultInjector(self.sim, self.trace)
        self.faults.network = self.network  # link slowdowns need the links
        self.storage = StableStorage(self.trace, clock=lambda: self.sim.now)
        self.seed = seed
        #: Per-node component runtimes, reused across missions (see
        #: :meth:`runtime_for`).  Keyed by node name.
        self._runtimes: Dict[str, object] = {}

    @property
    def now(self) -> float:
        return self.sim.now

    # -- snapshot / reset ---------------------------------------------------

    def snapshot(self) -> WorldSnapshot:
        """Capture the wired platform so :meth:`reset` can rewind to it.

        Take the snapshot right after construction and ``add_nodes`` —
        before any scenario runs — and :meth:`reset` becomes equivalent
        to building the same world from scratch, in O(state) instead of
        O(construction).
        """
        return WorldSnapshot(
            node_states=tuple(
                (name, node.snapshot_state())
                for name, node in self.cluster.nodes.items()
            ),
            network_state=self.network.snapshot_state(),
            storage_state=self.storage.snapshot_state(),
            trace_subscribers=tuple(self.trace._subscribers),
            trace_records=tuple(self.trace.records),
        )

    def reset(self, snapshot: WorldSnapshot, seed: Optional[int] = None) -> None:
        """Rewind to ``snapshot``, optionally under a new ``seed``.

        The invariant the whole reuse layer rests on: after
        ``world.reset(snapshot, seed)`` the world is *behaviourally
        byte-identical* to a freshly built ``World(seed=seed)`` with the
        same nodes added — same RNG draws, same event ordering, same
        traces — so stores produced by reused worlds match fresh-build
        stores bit for bit.  Nodes created after the snapshot (fleet
        topologies materialise inside the mission) are removed.
        """
        if seed is None:
            seed = self.seed
        self.seed = seed
        self.sim.reset(seed)
        keep = {name for name, _state in snapshot.node_states}
        for name in list(self.cluster.nodes):
            if name not in keep:
                del self.cluster.nodes[name]
        for name, state in snapshot.node_states:
            self.cluster.nodes[name].reset(state)
        self.network.reset(snapshot.network_state)
        self.faults.reset()
        self.storage.reset(snapshot.storage_state)
        self.trace.reset(list(snapshot.trace_subscribers))
        self.trace.records.extend(snapshot.trace_records)
        for name in list(self._runtimes):
            if name not in keep:
                del self._runtimes[name]
        for runtime in self._runtimes.values():
            runtime.reset()

    def trim(self) -> None:
        """Drop the finished mission's dynamic state without re-wiring.

        Called when a world is parked in an arena: :meth:`reset` would
        rebuild this state on the next lease anyway, but trimming at
        release time means a parked world pins only its wiring — not the
        trace records, storage contents and scheduled-event object
        graphs of whatever mission it last ran.  Stale mission state is
        exactly the kind of long-lived garbage that inflates every
        cyclic-GC pass.
        """
        self.sim.drain()
        self.trace.records.clear()
        self.storage._data.clear()
        self.storage._logs.clear()

    def runtime_for(self, node):
        """The (cached) component runtime hosting assemblies on ``node``.

        One :class:`~repro.components.runtime.ComponentRuntime` per node
        per world, surviving :meth:`reset` — the runtime re-initialises
        instead of being reconstructed, which is what makes re-deploying
        the same assembly cheap across missions.
        """
        runtime = self._runtimes.get(node.name)
        if runtime is None:
            from repro.components.runtime import make_runtime

            runtime = make_runtime(self, node)
            self._runtimes[node.name] = runtime
        return runtime

    def add_node(self, name: str, cpu_speed: float = 1.0,
                 energy_budget: Optional[float] = None) -> Node:
        """Create a node and attach it to the network."""
        node = self.cluster.add_node(name, cpu_speed, energy_budget)
        self.network.join(node)
        return node

    def add_nodes(
        self,
        names: List[str],
        cpu_speed: Union[float, Sequence[float], Mapping[str, float]] = 1.0,
        energy_budget: Union[
            None, float, Sequence[Optional[float]], Mapping[str, float]
        ] = None,
    ) -> List[Node]:
        """Create several nodes at once, with optional per-node overrides.

        ``cpu_speed`` and ``energy_budget`` accept the historical scalar
        (applied to every node), a sequence parallel to ``names``, or a
        mapping ``name -> value`` (missing names fall back to the
        default).  Heterogeneous fleets are built this way::

            world.add_nodes(["a", "b", "c"], cpu_speed={"b": 0.5})
        """
        speeds = _per_node(cpu_speed, names, default=1.0,
                           parameter="cpu_speed")
        budgets = _per_node(energy_budget, names, default=None,
                            parameter="energy_budget")
        return [
            self.add_node(name, speeds[i], budgets[i])
            for i, name in enumerate(names)
        ]

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
