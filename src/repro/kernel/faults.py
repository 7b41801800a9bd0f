"""Fault injection.

Implements the fault classes of the paper's Table 1 (following the
Avizienis et al. taxonomy the paper cites):

* **crash faults** — fail-stop of a host (node processes killed, volatile
  state lost);
* **transient value faults** — bit flips that corrupt a computation result
  once (e.g. radiation-induced SEUs, electromagnetic interference);
* **permanent value faults** — a host that systematically corrupts
  computations from some instant on (hardware aging);
* **omission faults** — message loss on the network;
* **slow (gray) faults** — a resource that *limps* instead of dying: a
  CPU running at a fraction of its speed, a NIC whose links inflate
  latency and deflate bandwidth, a disk multiplying storage costs.  The
  host stays up, heartbeats keep flowing, and only latency-percentile
  probes can tell it apart from a healthy one (the HDFS "limplock"
  failure mode).

Every injected fault is data: one frozen :class:`Fault` record, armed
through :meth:`FaultInjector.arm`, which compiles it onto the kernel —
fire events for timed crashes and slowdowns, a window consulted on
every computed result for value faults, and a listener on the
transition path's announcements for the Sec. 5.3 phase-scoped faults.

Value faults are injected at the *computation* boundary: application
servers pass every computed result through
:meth:`FaultInjector.filter_value`, which corrupts it when an armed value
fault says so.  This mirrors how the paper's FTMs observe faults — TR
compares two executions of the same request, Assertion checks a safety
predicate on the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.kernel.sim import Simulator
from repro.kernel.trace import Boundary, Trace
from repro.vocabulary import (
    SLOW_RESOURCES,
    TRANSITION_FAULT_KINDS,
    TRANSITION_PHASES,
)

#: The fault kinds a simulated-time window can carry.
TIMED_FAULT_KINDS = ("crash", "slow", "value")


@dataclass(frozen=True)
class Fault:
    """One injected fault: what strikes, on which node, and when.

    *When* is a simulated-time window from ``start`` to ``end`` (``None``:
    for ever), or — with ``phase`` set, one of :data:`TRANSITION_PHASES`
    — the span of that phase of a transition on ``node`` (``None``: any
    node).  ``kind`` is one of :data:`TIMED_FAULT_KINDS` for a window and
    one of :data:`TRANSITION_FAULT_KINDS` for a phase:

    * ``crash`` — fail-stop the node at ``start``, or when the phase
      starts (script phase: at the ``statement`` boundary, after the
      transactional rollback — the fail-silent wrapper);
    * ``slow`` — the node's ``resource`` (one of :data:`SLOW_RESOURCES`)
      limps by ``factor`` over the window or while the phase runs, then
      reverts byte-exactly (use power-of-two factors);
    * ``value`` — each result the node computes in the window is
      bit-flipped with ``probability``;
    * ``corrupt`` — bit-flip the in-flight chunk payloads (fetch),
      corrupt the unpacked payload so the checksum rejects it (deploy),
      tamper the script so it must roll back (script), or fail the
      residual cleanup (remove);
    * ``omission`` — message loss at ``probability`` while the phase runs.

    ``budget`` caps how often a value or phase-scoped fault strikes (by
    default once; ``None``: no cap).  A value fault with no end, no cap
    and ``probability`` 1 is *permanent*: it corrupts every result from
    ``start`` on.  A record checks itself once, when built: a fault
    that could never fire, or would only fail inside a running
    simulation, raises :class:`ValueError` here.
    """

    kind: str
    node: Optional[str] = None
    start: float = 0.0
    end: Optional[float] = None
    phase: Optional[str] = None
    statement: Optional[int] = None
    probability: float = 1.0
    budget: Optional[int] = 1
    resource: str = "cpu"
    factor: float = 8.0

    def __post_init__(self) -> None:
        timed = self.phase is None
        for broken, why in (
            (not timed and self.phase not in TRANSITION_PHASES,
             f"unknown transition phase {self.phase!r}"),
            (self.kind not in (TIMED_FAULT_KINDS if timed
                               else TRANSITION_FAULT_KINDS),
             f"a {'timed' if timed else self.phase} fault cannot be "
             f"{self.kind!r}"),
            (timed and self.node is None, "a timed fault needs a node"),
            (not timed and (self.start != 0.0 or self.end is not None),
             "a phase-scoped fault has no time window"),
            (self.end is not None and not self.end >= self.start,
             f"fault window ends before it starts: start={self.start!r}, "
             f"end={self.end!r}"),
            (self.kind == "crash" and self.end is not None,
             "a crash has no end"),
            (self.statement is not None
             and ((self.phase, self.kind) != ("script", "crash")
                  or not self.statement >= 0),
             f"statement={self.statement!r} needs a script-phase crash "
             f"and an index >= 0"),
            (not 0.0 <= self.probability <= 1.0,
             f"fault probability must be in [0, 1], got {self.probability!r}"),
            (self.budget is not None and not self.budget >= 1,
             f"fault budget must be >= 1 or None, got {self.budget!r}"),
            (self.resource not in SLOW_RESOURCES,
             f"unknown slow resource {self.resource!r} "
             f"(one of {SLOW_RESOURCES})"),
            (not 1.0 <= self.factor < math.inf,
             f"slowdown factor must be >= 1 and finite, got {self.factor!r}"),
        ):
            if broken:
                raise ValueError(why)


def bit_flip(value: Any, bit: int) -> Any:
    """Corrupt a value the way a hardware bit flip would.

    Integers get one bit flipped; floats are corrupted through their
    integer significand; strings/bytes get one character's bit flipped;
    anything else is wrapped in a :class:`Corrupted` marker (detectable by
    comparison, like a real corrupted record).
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << (bit % 31))
    if isinstance(value, float):
        # model a significand bit flip as a relative perturbation: exact
        # integer arithmetic on huge floats would round the flip away
        if value == 0.0:
            return (1 << (bit % 16)) / 2**10
        corrupted = value * (1.0 + 1.0 / (1 << (bit % 20 + 2)))
        if corrupted == value:  # pragma: no cover - paranoia
            corrupted = value * 2.0
        return corrupted
    if isinstance(value, str):
        if not value:
            return "\x01"
        index = bit % len(value)
        corrupted = chr(ord(value[index]) ^ (1 << (bit % 7)))
        return value[:index] + corrupted + value[index + 1 :]
    if isinstance(value, bytes):
        if not value:
            return b"\x01"
        index = bit % len(value)
        corrupted = bytes([value[index] ^ (1 << (bit % 8))])
        return value[:index] + corrupted + value[index + 1 :]
    if isinstance(value, (list, tuple)):
        if not value:
            return Corrupted(value)
        items = list(value)
        index = bit % len(items)
        items[index] = bit_flip(items[index], bit // max(len(items), 1) + 1)
        return type(value)(items) if isinstance(value, tuple) else items
    return Corrupted(value)


@dataclass(frozen=True)
class Corrupted:
    """Marker wrapper for corrupted values with no bit-level representation."""

    original: Any

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Corrupted {self.original!r}>"


class FaultInjector:
    """Central fault-injection authority for one simulation."""

    def __init__(self, sim: Simulator, trace: Trace, cluster, network):
        self.sim = sim
        self.trace = trace
        self.cluster = cluster  # timed faults strike nodes by name
        self.network = network  # link slowdowns and omission windows
        #: armed value faults: [fault, spent budget, traced kind]
        self._values: List[list] = []
        #: armed phase-scoped faults: [fault, spent budget]
        self._phased: List[list] = []
        #: what each running phase opened and must close: (phase, node) -> closers
        self._windows: Dict[tuple, list] = {}
        #: open omission windows per scope: [base loss, *window probabilities]
        self._loss_windows: Dict[Optional[tuple], List[float]] = {}
        self._rand = sim.random.substream("faults")

    def arm(self, *faults: Fault) -> None:
        """Arm each fault, in order, and trace it.

        A timed crash or slowdown schedules its fire events (the fault
        bucket of ``Simulator.events_by_source``); a value fault joins
        the windows :meth:`filter_value` consults; a phase-scoped fault
        joins those the transition path's announcements are matched
        against (:meth:`_on_boundary`, registered with the first one).
        Nothing on the transition path consults the injector: the
        Adaptation Engine and the script interpreter announce
        (:meth:`Trace.announce`) and the injector *listens*.
        """
        for fault in faults:
            if fault.phase is not None:
                if not self._phased:  # until now nobody had to listen
                    self.trace.listen(self._on_boundary)
                self._phased.append([fault, 0])
                self.trace.record(
                    "fault", "arm_transition_fault",
                    phase=fault.phase, kind=fault.kind, node=fault.node,
                )
            elif fault.kind == "value":
                sure = (fault.end, fault.budget, fault.probability)
                label = ("permanent" if sure == (None, None, 1.0)
                         else "transient")
                self._values.append([fault, 0, f"{label}_value"])
                self.trace.record("fault", f"arm_{label}", node=fault.node,
                                  probability=fault.probability)
            else:
                self._arm_timed(fault)

    def _arm_timed(self, fault: Fault) -> None:
        """Schedule a timed crash, or a slowdown's apply and revert."""
        node, now = self.cluster.node(fault.node), self.sim.now
        if fault.kind == "crash":
            self._schedule_fault(max(0.0, fault.start - now), self._crash, node)
            return
        reverts = []
        self._schedule_fault(
            max(0.0, fault.start - now),
            lambda: reverts.append(
                self._limp(node, fault.resource, fault.factor)
            ),
        )
        if fault.end is not None:
            self._schedule_fault(
                max(0.0, fault.end - now), lambda: reverts.pop()()
            )
        self.trace.record(
            "fault", "arm_slow",
            node=node.name, resource=fault.resource, factor=fault.factor,
        )

    def _schedule_fault(self, delay: float, fire, *args) -> None:
        """Schedule an injector callback, attributed to the fault bucket
        of ``Simulator.events_by_source``."""
        self.sim._ev_fault += 1
        self.sim.schedule(delay, fire, *args)

    def _crash(self, node) -> None:
        """Fire a timed crash."""
        self.trace.record("fault", "crash_injected", node=node.name)
        node.crash()

    # A limping resource, not a dead one.  Slowdowns are multiplicative so
    # they compose: two slowdowns of the same resource stack, and reverts
    # restore the exact original speed in any order (use power-of-two
    # factors for bit-exact float round-trips).

    def _limp(self, node, resource: str, factor: float):
        """Degrade one of ``node``'s resources *now* by ``factor``.

        Returns a revert callback restoring the original speed.  ``cpu``
        divides :attr:`Node.cpu_speed`, ``disk`` divides
        :attr:`Node.disk_speed` (storage-heavy costs scale by it), and
        ``link`` multiplies latency / divides bandwidth on every link
        touching the node (both directions).
        """
        if resource == "cpu":
            node.cpu_speed /= factor

            def undo() -> None:
                node.cpu_speed *= factor

        elif resource == "disk":
            node.disk_speed /= factor

            def undo() -> None:
                node.disk_speed *= factor

        else:  # link
            links = self.network.links_touching(node.name)
            for link in links:
                link.latency *= factor
                link.bandwidth /= factor

            def undo() -> None:
                for link in links:
                    link.latency /= factor
                    link.bandwidth *= factor

        self.trace.record(
            "fault", "slow_applied",
            node=node.name, resource=resource, factor=factor,
        )

        def revert() -> None:
            undo()
            self.trace.record(
                "fault", "slow_reverted",
                node=node.name, resource=resource, factor=factor,
            )

        return revert

    def filter_value(self, node_name: str, value: Any) -> Any:
        """Pass a computation result through the armed value faults.

        Each live window on the node, in arming order, corrupts *this one
        result* with its probability (a permanent fault: every result);
        the first that strikes wins.  Each corruption is an independent
        bit flip.
        """
        for armed in self._values:
            fault, spent, kind = armed
            now = self.sim.now
            if (fault.node != node_name or now < fault.start
                    or (fault.end is not None and now > fault.end)
                    or (fault.budget is not None and spent >= fault.budget)
                    or not self._rand.chance(fault.probability)):
                continue
            armed[1] = spent + 1
            bit = self._rand.randint(0, 30)
            self.trace.record(
                "fault", "value_injected", node=node_name, kind=kind, bit=bit
            )
            return bit_flip(value, bit)
        return value

    # -- phase-scoped transition faults ----------------------------------------------

    def _take(self, boundary: Boundary, kind: str) -> Optional[Fault]:
        """Spend one unit of the first armed fault of ``kind`` the
        announced boundary matches; ``None`` when nothing matches."""
        node = boundary.node.name
        for armed in self._phased:
            fault, spent = armed
            if (fault.phase == boundary.phase and fault.kind == kind
                    and (fault.budget is None or spent < fault.budget)
                    and (fault.node is None or fault.node == node)
                    and (fault.statement is None
                         or fault.statement == boundary.index)):
                armed[1] = spent + 1
                self.trace.record(
                    "fault", "transition_fault_injected",
                    phase=fault.phase, kind=kind, node=node,
                )
                return fault
        return None

    def _on_boundary(self, boundary: Boundary) -> None:
        """The injector's one listener on the transition path, registered
        with the first phase-scoped fault armed.

        Crash on ``enter`` (script phase: fail the ``statement`` boundary
        instead, so the transaction rolls back before the fail-silent
        wrapper kills), slow and omission windows from ``enter`` to
        ``leave``, corruption on a crossing — in that order, one trace
        record per fault taken.
        """
        point, node = boundary.point, boundary.node
        if point == "enter":
            if boundary.phase != "script" and self._take(boundary, "crash"):
                node.crash()
                return
            closers = self._windows.setdefault((boundary.phase, node.name), [])
            slow = self._take(boundary, "slow")
            if slow is not None:
                closers.append(self._limp(node, slow.resource, slow.factor))
            omission = self._take(boundary, "omission")
            if omission is not None:
                closers.append(self._open_loss_window(
                    node.name, boundary.remote, omission.probability
                ))
        elif point == "leave":
            for close in self._windows.pop((boundary.phase, node.name), ()):
                close()
        elif point == "statement":
            if self._take(boundary, "crash"):
                boundary.failed = f"crash at statement {boundary.index}"
        elif point == "chunk":
            if self._take(boundary, "corrupt"):
                boundary.payload = bit_flip(
                    boundary.payload, boundary.rand.randint(0, 30)
                )
        elif self._take(boundary, "corrupt"):  # payload, script, residue
            boundary.failed = "corrupt"

    def _open_loss_window(self, node: str, remote: Optional[str],
                          probability: float):
        """Raise the transition path's loss to at least ``probability``.

        The window's scope is the node-to-``remote`` link (package
        traffic; the FTM's own replication traffic keeps its configured
        loss) or, with no remote end, the whole network.  A scope's loss
        is the maximum over its base value and every open window,
        recomputed on each open and close, so windows may overlap and
        close in any order: the last one out restores the base.  Returns
        the window's close callback.
        """
        network = self.network
        if remote is None:
            key, base = None, network.loss_probability
            write = network.set_loss_probability
        else:
            key, base = (node, remote), network.link(node, remote).loss

            def write(loss: float) -> None:
                network.set_link_loss(node, remote, loss)

        scope = self._loss_windows.setdefault(key, [base])
        scope.append(probability)
        write(max(scope))

        def close() -> None:
            scope.remove(probability)
            write(max(scope))
            if len(scope) == 1:
                del self._loss_windows[key]

        return close
