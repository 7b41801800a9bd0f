"""Simulated hosts.

A :class:`Node` models one computing unit of the paper's testbed: it runs
processes, charges CPU time and energy for computations, and can suffer
fail-stop **crash faults** (all its processes are killed instantly; its
volatile state is lost; only :mod:`repro.kernel.storage` survives).
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, List

from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.errors import NodeDown
from repro.kernel.sim import Process, Simulator, Timeout
from repro.kernel.trace import Trace


class NodeState(enum.Enum):
    """Whether a host is serving or crashed (fail-stop)."""

    UP = "up"
    CRASHED = "crashed"


class Ticker:
    """A node-pinned repeating timer callback — the process fast path.

    For background loops of the shape ``while True: work(); yield
    Timeout(period)`` whose work is a plain function call (no blocking
    waits), a ticker fires the callback directly from the event loop:
    same instants, same event ordering, no generator frame to resume per
    tick.  It rides in ``node.processes`` next to real processes (duck
    typed: ``alive`` / ``kill``), so a node crash stops it exactly like
    a spawned loop; a tick already in the queue when the ticker dies
    fires as a no-op.
    """

    __slots__ = ("sim", "period", "fn", "_killed")

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], None]):
        self.sim = sim
        self.period = period
        self.fn = fn
        self._killed = False

    @property
    def alive(self) -> bool:
        return not self._killed

    def kill(self) -> None:
        """Stop ticking (idempotent); a queued tick becomes a no-op."""
        self._killed = True

    def _tick(self) -> None:
        if self._killed:
            return
        sim = self.sim
        sim._ev_timer += 1
        self.fn()
        if not self._killed:  # fn may have killed us
            sim._push(self.period, self._tick, ())


class Node:
    """One simulated host with CPU-speed, energy and crash semantics."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        trace: Trace,
        costs: CostModel = DEFAULT_COSTS,
        cpu_speed: float = 1.0,
    ):
        if cpu_speed <= 0:
            raise ValueError(f"cpu_speed must be positive, got {cpu_speed}")
        self.sim = sim
        self.name = name
        self.trace = trace
        self.costs = costs
        self.cpu_speed = cpu_speed
        #: Relative storage speed: disk-heavy costs (checkpoint capture /
        #: apply, package unpack / remove / checksum) divide by it.  A
        #: limping disk (gray failure) drops it below 1.0 via
        #: :meth:`FaultInjector.apply_slow`; the node itself stays up.
        self.disk_speed = 1.0
        #: Plain attribute, not a property: the message path reads it on
        #: every send/deliver, so crash/restart maintain it directly.
        self.is_up = True
        #: Spawned processes and tickers, killed together on crash.
        self.processes: List = []
        self._rand = sim.random.substream(f"node.{name}")
        # accounting (reset on crash: volatile counters; cumulative kept for eval)
        self.busy_ms = 0.0
        self.energy = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.crash_count = 0
        self._crash_hooks: List[Callable[["Node"], None]] = []
        self._restart_hooks: List[Callable[["Node"], None]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} {self.state.value}>"

    @property
    def state(self) -> NodeState:
        """The fail-stop state, derived from :attr:`is_up`."""
        return NodeState.UP if self.is_up else NodeState.CRASHED

    def check_up(self, operation: str = "operation") -> None:
        """Raise :class:`NodeDown` when the node is crashed."""
        if not self.is_up:
            raise NodeDown(self.name, operation)

    # -- process management --------------------------------------------------

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Run a process pinned to this node (killed if the node crashes)."""
        self.check_up("spawn")
        process = self.sim.spawn(gen, name=f"{self.name}/{name}")
        self.processes.append(process)
        return process

    def every(self, period: float, fn: Callable[[], None]) -> Ticker:
        """Run ``fn()`` now and then every ``period`` ms until killed.

        Equivalent to spawning ``while True: fn(); yield Timeout(period)``
        — first call at the current instant as a zero-delay event, one
        timed event per tick thereafter — minus the per-tick generator
        resume.  Killed when the node crashes, like any spawned process.
        """
        self.check_up("every")
        ticker = Ticker(self.sim, period, fn)
        self.processes.append(ticker)
        self.sim.post(ticker._tick)
        return ticker

    def _reap(self) -> None:
        self.processes = [p for p in self.processes if p.alive]

    # -- computation ----------------------------------------------------------

    def compute_charge(self, duration_ms: float, jitter: bool = True) -> Timeout:
        """Charge ``duration_ms`` of CPU time and return the wait.

        The flat form of :meth:`compute` for hot paths: ``yield
        node.compute_charge(5.0)`` does the same accounting and the same
        single wait without allocating and driving a generator frame per
        computation.  The accounting happens when the expression is
        evaluated — the same instant a ``yield from node.compute(...)``
        would run the generator body.
        """
        self.check_up("compute")
        effective = duration_ms / self.cpu_speed
        if jitter:
            effective = self._rand.jitter(effective, self.costs.jitter_fraction)
        self.busy_ms += effective
        self.energy += effective * self.costs.energy_per_ms_busy
        return Timeout(effective)

    def compute(self, duration_ms: float, jitter: bool = True) -> Generator:
        """Charge ``duration_ms`` of CPU time (scaled by the node's speed).

        Usage inside a process: ``yield from node.compute(5.0)``.
        """
        yield self.compute_charge(duration_ms, jitter)

    def charge_energy_for_send(self, size: int) -> None:
        """Account the energy and byte cost of one outgoing message."""
        self.bytes_sent += size
        self.energy += size * self.costs.energy_per_byte_sent

    # -- crash / restart --------------------------------------------------------

    def on_crash(self, hook: Callable[["Node"], None]) -> None:
        """Register a callback fired when this node crashes."""
        self._crash_hooks.append(hook)

    def on_restart(self, hook: Callable[["Node"], None]) -> None:
        """Register a callback fired when this node restarts."""
        self._restart_hooks.append(hook)

    def crash(self) -> None:
        """Fail-stop: kill every process on this node, drop volatile state."""
        if not self.is_up:
            return
        self.is_up = False
        self.crash_count += 1
        self.trace.record("node", "crash", node=self.name)
        self._reap()
        victims, self.processes = self.processes, []
        for process in victims:
            process.kill()
        for hook in list(self._crash_hooks):
            hook(self)

    def restart(self) -> None:
        """Bring the node back up (with empty volatile state).

        Higher layers (the replica manager) are responsible for redeploying
        software on the restarted node; the restart hooks let them observe it.
        """
        if self.is_up:
            return
        self.is_up = True
        self.trace.record("node", "restart", node=self.name)
        for hook in list(self._restart_hooks):
            hook(self)

    def schedule_crash(self, delay: float) -> None:
        """Crash this node ``delay`` ms from now."""
        self.sim.schedule(delay, self.crash)

    def schedule_restart(self, delay: float) -> None:
        """Restart this node ``delay`` ms from now."""
        self.sim.schedule(delay, self.restart)


class Cluster:
    """A named collection of nodes sharing a simulator, trace and costs.

    Convenience factory used throughout tests and examples.
    """

    def __init__(self, sim: Simulator, trace: Trace, costs: CostModel = DEFAULT_COSTS):
        self.sim = sim
        self.trace = trace
        self.costs = costs
        self.nodes: dict = {}

    def add_node(self, name: str, cpu_speed: float = 1.0) -> Node:
        """Create a node in this cluster (names must be unique)."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(self.sim, name, self.trace, self.costs, cpu_speed)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def up_nodes(self) -> List[Node]:
        """The nodes currently serving."""
        return [n for n in self.nodes.values() if n.is_up]
