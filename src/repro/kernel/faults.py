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

Value faults are injected at the *computation* boundary: application
servers pass every computed result through
:meth:`FaultInjector.filter_value`, which corrupts it when an armed fault
campaign says so.  This mirrors how the paper's FTMs observe faults — TR
compares two executions of the same request, Assertion checks a safety
predicate on the output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.kernel.sim import Simulator
from repro.kernel.trace import Boundary, Trace
from repro.vocabulary import (
    SLOW_RESOURCES,
    TRANSITION_FAULT_KINDS,
    TRANSITION_PHASES,
)


class FaultKind(enum.Enum):
    """The injectable fault classes (Table 1 vocabulary)."""

    CRASH = "crash"
    TRANSIENT_VALUE = "transient_value"
    PERMANENT_VALUE = "permanent_value"
    OMISSION = "omission"
    SLOW = "slow"


@dataclass
class _ValueCampaign:
    """An armed window of value-fault injection on one node."""

    kind: FaultKind
    node: str
    start: float
    end: Optional[float]  # None = forever (permanent)
    probability: float
    injected: int = 0
    budget: Optional[int] = None  # max number of corruptions, None = unlimited

    def active(self, now: float) -> bool:
        if now < self.start:
            return False
        if self.end is not None and now > self.end:
            return False
        if self.budget is not None and self.injected >= self.budget:
            return False
        return True


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


@dataclass
class _TransitionFault:
    """One armed phase-scoped fault on the transition path.

    ``node=None`` matches any node; ``at_statement`` (script phase only)
    pins a crash to one statement boundary; ``probability`` is the
    omission rate applied while the faulted phase runs.
    """

    phase: str
    kind: str
    node: Optional[str]
    at_statement: Optional[int] = None
    probability: float = 1.0
    budget: int = 1
    fired: int = 0
    resource: str = "cpu"  # slow faults only: which resource limps
    factor: float = 8.0  # slow faults only: the slowdown multiplier

    def matches(self, phase: str, node: str, kind: str,
                statement: Optional[int]) -> bool:
        if self.fired >= self.budget:
            return False
        if self.phase != phase or self.kind != kind:
            return False
        if self.node is not None and self.node != node:
            return False
        if self.at_statement is not None and statement != self.at_statement:
            return False
        return True


class FaultInjector:
    """Central fault-injection authority for one simulation."""

    def __init__(self, sim: Simulator, trace: Trace):
        self.sim = sim
        self.trace = trace
        self.network = None  # wired by World; needed for link slowdowns
        self._campaigns: List[_ValueCampaign] = []
        self._transition_faults: List[_TransitionFault] = []
        #: what each running phase opened and must close: (phase, node) -> closers
        self._windows: Dict[tuple, list] = {}
        #: open omission windows per scope: [base loss, *window probabilities]
        self._loss_windows: Dict[Optional[tuple], List[float]] = {}
        self._rand = sim.random.substream("faults")
        self.injected_counts: Dict[FaultKind, int] = {kind: 0 for kind in FaultKind}
        self.transition_faults_injected: Dict[str, int] = {}

    # -- crash faults -------------------------------------------------------------

    def _schedule_fault(self, delay: float, fire) -> None:
        """Schedule an injector callback, attributed to the fault bucket
        of ``Simulator.events_by_source``."""
        self.sim._ev_fault += 1
        self.sim.schedule(delay, fire)

    def schedule_crash(self, node, at: float, restart_after: Optional[float] = None):
        """Crash ``node`` at absolute time ``at`` (optionally restart later)."""

        def fire() -> None:
            self.injected_counts[FaultKind.CRASH] += 1
            self.trace.record("fault", "crash_injected", node=node.name)
            node.crash()
            if restart_after is not None:
                node.schedule_restart(restart_after)

        delay = max(0.0, at - self.sim.now)
        self._schedule_fault(delay, fire)

    # -- slow (gray) faults ---------------------------------------------------------
    #
    # A limping resource, not a dead one.  Slowdowns are multiplicative so
    # they compose: two armed campaigns on the same resource stack, and
    # reverts restore the exact original speed in any order (use power-of-
    # two factors for bit-exact float round-trips).

    def apply_slow(self, node, resource: str, factor: float):
        """Degrade one of ``node``'s resources *now* by ``factor``.

        Returns a revert callback restoring the original speed.  ``cpu``
        divides :attr:`Node.cpu_speed`, ``disk`` divides
        :attr:`Node.disk_speed` (storage-heavy costs scale by it), and
        ``link`` multiplies latency / divides bandwidth on every link
        touching the node (both directions).
        """
        if resource not in SLOW_RESOURCES:
            raise ValueError(
                f"unknown slow resource {resource!r} (one of {SLOW_RESOURCES})"
            )
        if not factor >= 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor!r}")
        if resource == "cpu":
            node.cpu_speed /= factor

            def undo() -> None:
                node.cpu_speed *= factor

        elif resource == "disk":
            node.disk_speed /= factor

            def undo() -> None:
                node.disk_speed *= factor

        else:  # link
            if self.network is None:
                raise RuntimeError("link slowdowns need faults.network wired")
            links = self.network.links_touching(node.name)
            for link in links:
                link.latency *= factor
                link.bandwidth /= factor

            def undo() -> None:
                for link in links:
                    link.latency /= factor
                    link.bandwidth *= factor

        self.injected_counts[FaultKind.SLOW] += 1
        self.trace.record(
            "fault", "slow_applied",
            node=node.name, resource=resource, factor=factor,
        )
        reverted = [False]

        def revert() -> None:
            if reverted[0]:
                return
            reverted[0] = True
            undo()
            self.trace.record(
                "fault", "slow_reverted",
                node=node.name, resource=resource, factor=factor,
            )

        return revert

    def arm_slow(
        self,
        node,
        resource: str,
        factor: float,
        start: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        """Arm a gray failure: ``node``'s ``resource`` limps by ``factor``.

        The slowdown applies at absolute time ``start`` and reverts after
        ``duration`` ms (``None`` = the resource limps forever).  The host
        never goes down — heartbeats keep flowing — so only the Monitoring
        Engine's latency-percentile probes can see it.  Composable with
        crash/value/omission campaigns and with other slowdowns.
        """
        if resource not in SLOW_RESOURCES:
            raise ValueError(
                f"unknown slow resource {resource!r} (one of {SLOW_RESOURCES})"
            )
        if not factor >= 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor!r}")
        if duration is not None and duration < 0:
            raise ValueError(f"slow duration must be >= 0, got {duration!r}")
        state = {"revert": None}

        def fire_apply() -> None:
            state["revert"] = self.apply_slow(node, resource, factor)

        self._schedule_fault(max(0.0, start - self.sim.now), fire_apply)
        if duration is not None:

            def fire_revert() -> None:
                if state["revert"] is not None:
                    state["revert"]()
                    state["revert"] = None

            self._schedule_fault(
                max(0.0, start + duration - self.sim.now), fire_revert
            )
        self.trace.record(
            "fault", "arm_slow",
            node=node.name, resource=resource, factor=factor,
        )

    # -- value faults -----------------------------------------------------------------

    def arm_transient(
        self,
        node_name: str,
        probability: float,
        start: float = 0.0,
        end: Optional[float] = None,
        budget: Optional[int] = None,
    ) -> None:
        """Arm a window of transient value faults on a node's computations."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"transient fault probability must be in [0, 1], "
                f"got {probability!r}"
            )
        if end is not None and end < start:
            raise ValueError(
                f"transient window has negative duration: "
                f"start={start!r}, end={end!r}"
            )
        self._campaigns.append(
            _ValueCampaign(
                kind=FaultKind.TRANSIENT_VALUE,
                node=node_name,
                start=start,
                end=end,
                probability=probability,
                budget=budget,
            )
        )
        self.trace.record(
            "fault", "arm_transient", node=node_name, probability=probability
        )

    def arm_permanent(self, node_name: str, start: float = 0.0) -> None:
        """From ``start`` on, every computation on the node is corrupted."""
        self._campaigns.append(
            _ValueCampaign(
                kind=FaultKind.PERMANENT_VALUE,
                node=node_name,
                start=start,
                end=None,
                probability=1.0,
            )
        )
        self.trace.record("fault", "arm_permanent", node=node_name)

    def disarm(self, node_name: str) -> None:
        """Cancel all value-fault campaigns on a node (hardware replaced)."""
        self._campaigns = [c for c in self._campaigns if c.node != node_name]
        self.trace.record("fault", "disarm", node=node_name)

    def filter_value(self, node_name: str, value: Any) -> Any:
        """Pass a computation result through the armed campaigns.

        Transient campaigns corrupt *this one result* with their
        probability; permanent campaigns corrupt every result.  Each
        corruption is an independent bit flip.
        """
        for campaign in self._campaigns:
            if campaign.node != node_name or not campaign.active(self.sim.now):
                continue
            if not self._rand.chance(campaign.probability):
                continue
            campaign.injected += 1
            self.injected_counts[campaign.kind] += 1
            bit = self._rand.randint(0, 30)
            corrupted = bit_flip(value, bit)
            self.trace.record(
                "fault",
                "value_injected",
                node=node_name,
                kind=campaign.kind.value,
                bit=bit,
            )
            return corrupted
        return value

    def has_active_campaign(self, node_name: str) -> bool:
        """Is any value-fault campaign currently live on the node?"""
        return any(
            c.node == node_name and c.active(self.sim.now) for c in self._campaigns
        )

    # -- omission faults -----------------------------------------------------------

    def set_omission_rate(self, network, probability: float) -> None:
        """Inject omission faults: network-wide message loss."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"omission probability must be in [0, 1], got {probability!r}"
            )
        network.set_loss_probability(probability)
        self.trace.record("fault", "omission_rate", probability=probability)

    def set_link_omission_rate(
        self, network, source: str, destination: str, probability: float
    ) -> None:
        """Inject omission faults on one link only (e.g. the repository link)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"omission probability must be in [0, 1], got {probability!r}"
            )
        network.set_link_loss(source, destination, probability)
        self.trace.record(
            "fault", "link_omission_rate",
            source=source, destination=destination, probability=probability,
        )

    # -- phase-scoped transition faults ----------------------------------------------

    def arm_transition_fault(
        self,
        phase: str,
        kind: str,
        node: Optional[str] = None,
        at_statement: Optional[int] = None,
        probability: float = 1.0,
        budget: int = 1,
        resource: str = "cpu",
        factor: float = 8.0,
    ) -> None:
        """Arm a fault against one phase of the transition path.

        ``phase`` is one of :data:`TRANSITION_PHASES`, ``kind`` one of
        :data:`TRANSITION_FAULT_KINDS`.  Nothing on the transition path
        consults the injector: the Adaptation Engine and the script
        interpreter announce their phase boundaries and crossings
        (:meth:`Trace.announce`) and the injector *listens*
        (:meth:`_on_boundary`) — this is the single injection API behind
        the Sec. 5.3 consistency experiments and the transition-survival
        matrix.  Semantics by kind:

        * ``crash`` — fail-stop the transitioning node when the phase
          starts (script phase: at the ``at_statement`` boundary, after
          the transactional rollback — the fail-silent wrapper);
        * ``corrupt`` — bit-flip the in-flight chunk payloads (fetch),
          corrupt the unpacked payload so the checksum rejects it
          (deploy), tamper the script so it must roll back (script), or
          fail the residual cleanup (remove);
        * ``omission`` — message loss at ``probability`` while the phase
          runs;
        * ``slow`` — the transitioning node's ``resource`` (one of
          :data:`SLOW_RESOURCES`) limps by ``factor`` while the phase
          runs (gray failure: degraded, never dead).
        """
        if phase not in TRANSITION_PHASES:
            raise ValueError(f"unknown transition phase {phase!r}")
        if kind not in TRANSITION_FAULT_KINDS:
            raise ValueError(f"unknown transition fault kind {kind!r}")
        if kind == "slow" and resource not in SLOW_RESOURCES:
            raise ValueError(
                f"unknown slow resource {resource!r} (one of {SLOW_RESOURCES})"
            )
        if not self._transition_faults:  # until now nobody had to listen
            self.trace.listen(self._on_boundary)
        self._transition_faults.append(
            _TransitionFault(
                phase=phase,
                kind=kind,
                node=node,
                at_statement=at_statement,
                probability=probability,
                budget=budget,
                resource=resource,
                factor=factor,
            )
        )
        self.trace.record(
            "fault", "arm_transition_fault", phase=phase, kind=kind, node=node
        )

    def _take(self, boundary: Boundary, kind: str) -> Optional[_TransitionFault]:
        """Spend one unit of the first armed fault of ``kind`` the
        announced boundary matches; ``None`` when nothing matches."""
        node = boundary.node.name
        for fault in self._transition_faults:
            if fault.matches(boundary.phase, node, kind, boundary.index):
                fault.fired += 1
                key = f"{fault.phase}/{kind}"
                self.transition_faults_injected[key] = (
                    self.transition_faults_injected.get(key, 0) + 1
                )
                self.trace.record(
                    "fault", "transition_fault_injected",
                    phase=fault.phase, kind=kind, node=node,
                )
                return fault
        return None

    def _on_boundary(self, boundary: Boundary) -> None:
        """The injector's one listener on the transition path, registered
        with the first fault armed.

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
                closers.append(self.apply_slow(node, slow.resource, slow.factor))
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
