"""Fleet-level resilience management: shared R feeding per-pair contexts.

The single-pair :class:`~repro.core.resilience.ResilienceManager` reacts
to monitoring triggers about *its own* world.  At fleet scale the R
dimension is not private: every pair's bandwidth is the residual of the
edges its route shares with its neighbours, and every host's CPU and
energy serve whichever replica lives there.  The
:class:`FleetResilienceManager` therefore recomputes, on a fixed period,
the demand each placed pair puts on hosts and edges (from the demand
calibration in :mod:`repro.fleet.demand`), derives each pair's own
:class:`~repro.core.parameters.ResourceState`, and asks
:func:`~repro.core.transition_graph.decide` for each pair's verdict
(DESIGN.md, "Decisions: one rule").  Possible moves go to the shared
:class:`~repro.core.resilience.SystemManager`, which by default queues
them — the man-in-the-loop that prevents oscillation when a transition
frees the very resource whose scarcity forced it.

Because demand follows the *currently deployed* FTM of every pair, one
pair's transition (or a new pair's placement) can invalidate a
neighbour's resources — the paper's transition-scenario graph evaluated
at fleet scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.adaptation_engine import AdaptationEngine
from repro.core.parameters import (
    ApplicationCharacteristics,
    FaultClass,
    FaultToleranceRequirements,
    ResourceState,
    SystemContext,
)
from repro.core.resilience import SystemManager, runs_now
from repro.core.transition_graph import decide
from repro.fleet.demand import ftm_demand
from repro.fleet.placement import Assignment
from repro.fleet.topology import Topology
from repro.kernel.sim import Timeout

#: Virtual ms between two shared-R sweeps.
PERIOD_MS = 250.0
#: Fraction of a host's CPU capacity above which it counts as saturated.
CPU_SATURATION = 0.85
#: Fraction of a node's energy budget below which energy counts as scarce.
ENERGY_FLOOR = 0.1


@dataclass
class PlacedPair:
    """One registered app pair plus its fleet-management state."""

    assignment: Assignment
    pair: object  # FTMPair (duck-typed to avoid the heavy import cycle)
    engine: AdaptationEngine
    context: SystemContext
    route_edges: Tuple[Tuple[str, str], ...]
    in_transition: bool = False
    last_flags: Tuple[bool, bool, bool] = (True, True, True)
    last_limping: bool = False
    transitions: int = 0
    failed_transitions: int = 0

    @property
    def app(self) -> str:
        return self.assignment.app


class FleetResilienceManager:
    """Periodic shared-utilisation recompute driving per-pair decisions."""

    def __init__(self, world, topology: Topology):
        self.world = world
        self.topology = topology
        self.system_manager = SystemManager()
        self.placed: List[PlacedPair] = []
        self.decisions: List[dict] = []
        #: hosts currently limping (gray churn / armed slowdowns); fed by
        #: the trace observer so steering needs no extra probe traffic
        self.limping_hosts: set = set()
        self._process = None
        world.trace.subscribe(self._observe_gray)

    def _observe_gray(self, record) -> None:
        if record.category != "fault":
            return
        if record.event == "slow_applied":
            self.limping_hosts.add(record.detail("node"))
        elif record.event == "slow_reverted":
            self.limping_hosts.discard(record.detail("node"))

    # -- registration -------------------------------------------------------

    def register(self, assignment: Assignment, pair) -> PlacedPair:
        """Adopt one deployed pair; its demand counts from now on.

        The pair's FT requirement is derived from the fault models its
        initial FTM covers, so resource-driven transitions stay within
        the right family (a PBR⊕TR pair under bandwidth contention moves
        to LFR⊕TR, never to an FTM that drops TR coverage).
        """
        from repro.ftm.catalog import PATTERN_CLASSES

        context = SystemContext(
            ft=FaultToleranceRequirements(frozenset(
                FaultClass(name)
                for name in PATTERN_CLASSES[assignment.ftm].FAULT_MODELS
            )),
            a=ApplicationCharacteristics(name=assignment.app),
        )
        placed = PlacedPair(
            assignment=assignment,
            pair=pair,
            engine=AdaptationEngine(self.world, pair, context=context),
            context=context,
            route_edges=tuple(
                self.topology.route_edges(*assignment.nodes)
            ),
        )
        self.placed.append(placed)
        return placed

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic shared-R recompute loop."""
        if self._process is None or not self._process.alive:
            self._process = self.world.sim.spawn(
                self._loop(), name="fleet-resilience"
            )

    def stop(self) -> None:
        """Halt the recompute loop (registered pairs stay registered)."""
        if self._process is not None and self._process.alive:
            self._process.kill()

    def _loop(self):
        while True:
            yield Timeout(PERIOD_MS)
            self.evaluate_once()

    # -- shared utilisation --------------------------------------------------

    def utilisation(self) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
        """``(cpu demand per host, bandwidth demand per edge)`` right now.

        Demand follows each pair's *currently deployed* FTM, so a
        completed transition immediately changes what the neighbours see.
        """
        host_cpu: Dict[str, float] = {}
        edge_bw: Dict[Tuple[str, str], float] = {}
        for placed in self.placed:
            cpu, bandwidth = ftm_demand(placed.pair.ftm)
            for host in placed.assignment.nodes:
                host_cpu[host] = host_cpu.get(host, 0.0) + cpu
            for key in placed.route_edges:
                edge_bw[key] = edge_bw.get(key, 0.0) + bandwidth
        return host_cpu, edge_bw

    def _resource_state(
        self,
        placed: PlacedPair,
        host_cpu: Dict[str, float],
        edge_bw: Dict[Tuple[str, str], float],
    ) -> ResourceState:
        """One pair's R, from its own slice of the shared utilisation."""
        _cpu_units, own_bw = ftm_demand(placed.pair.ftm)

        cpu_ok = True
        headroom = 1.0
        energy_ok = True
        for host_name in placed.assignment.nodes:
            host = self.topology.host(host_name)
            demand = host_cpu.get(host_name, 0.0)
            capacity = host.cpu_speed
            if demand > CPU_SATURATION * capacity:
                cpu_ok = False
            headroom = min(headroom, max(0.0, 1.0 - demand / capacity))
            node = self.world.cluster.node(host_name)
            remaining = node.energy_remaining
            if remaining is not None and node.energy_budget:
                if remaining < ENERGY_FLOOR * node.energy_budget:
                    energy_ok = False

        bandwidth_ok = True
        free_for_me = float("inf")
        for key in placed.route_edges:
            capacity = self.topology.edges[key].bandwidth
            demand = edge_bw.get(key, 0.0)
            if demand > capacity:
                bandwidth_ok = False
            others = demand - own_bw
            free_for_me = min(free_for_me, max(0.0, capacity - others))
        if free_for_me == float("inf"):
            free_for_me = placed.context.r.bandwidth_bytes_per_ms

        return ResourceState(
            bandwidth_ok=bandwidth_ok,
            cpu_ok=cpu_ok,
            energy_ok=energy_ok,
            bandwidth_bytes_per_ms=round(free_for_me, 3),
            cpu_headroom=round(headroom, 3),
        )

    def _culprits(
        self,
        placed: PlacedPair,
        edge_bw: Dict[Tuple[str, str], float],
    ) -> List[str]:
        """Apps whose routes oversubscribe an edge this pair depends on."""
        contested = {
            key for key in placed.route_edges
            if edge_bw.get(key, 0.0) > self.topology.edges[key].bandwidth
        }
        if not contested:
            return []
        names = {
            other.app
            for other in self.placed
            if other is not placed and contested & set(other.route_edges)
        }
        return sorted(names)

    # -- the decision sweep --------------------------------------------------

    def evaluate_once(self) -> None:
        """One recompute-and-decide sweep over every registered pair."""
        host_cpu, edge_bw = self.utilisation()
        for placed in self.placed:
            if placed.in_transition:
                continue
            if not all(
                self.world.cluster.node(h).is_up
                for h in placed.assignment.nodes
            ):
                continue  # churned/crashed replica: recovery's problem
            new_r = self._resource_state(placed, host_cpu, edge_bw)
            placed.context = placed.context.with_r(new_r)
            limping = any(
                host in self.limping_hosts
                for host in placed.assignment.nodes
            )
            if limping != placed.last_limping:
                self._steer_limp(placed, limping)
            flags = (new_r.bandwidth_ok, new_r.cpu_ok, new_r.energy_ok)
            if flags == placed.last_flags and limping == placed.last_limping:
                continue
            changed_limp = limping != placed.last_limping
            placed.last_flags = flags
            placed.last_limping = limping
            self.world.trace.record(
                "fleet", "r_change", app=placed.app,
                bandwidth_ok=new_r.bandwidth_ok, cpu_ok=new_r.cpu_ok,
                energy_ok=new_r.energy_ok,
            )
            self._decide(placed, edge_bw, limp=changed_limp and limping)

    def _steer_limp(self, placed: PlacedPair, limping: bool) -> None:
        """Steer a pair's FT requirement around gray replica hosts.

        A limping replica adds :attr:`FaultClass.LIMP` to the pair's FT
        dimension, invalidating FTMs that cannot serve acceptably from a
        slow host (PBR's checkpoint shipping) — the following
        :meth:`_decide` sweep then executes the *proactive* move into the
        limp-tolerant family.  Recovery removes the requirement again.
        """
        classes = set(placed.context.ft.fault_classes)
        if limping:
            classes.add(FaultClass.LIMP)
        else:
            classes.discard(FaultClass.LIMP)
        placed.context = placed.context.with_ft(
            FaultToleranceRequirements(frozenset(classes))
        )
        self.world.trace.record(
            "fleet", "limp_steer", app=placed.app, limping=limping,
        )

    def _decide(self, placed: PlacedPair, edge_bw, limp: bool = False) -> None:
        verdict = decide(placed.pair.ftm, placed.context)
        decision = {
            "time": self.world.now,
            "app": placed.app,
            "current": verdict.current.ftm,
            "target": verdict.current.ftm,
            "kind": "none",
            "cause": "limp" if limp else "resources",
            "culprits": [],
            "executed": False,
        }
        self.decisions.append(decision)
        if verdict.target is None:
            decision["kind"] = "no-generic-solution"
            self.world.trace.record(
                "fleet", "no_generic_solution", app=placed.app
            )
            return
        if not verdict.moves:
            return
        decision.update(kind=verdict.kind, target=verdict.target)
        if verdict.kind == "mandatory":
            culprits = self._culprits(placed, edge_bw)
            if culprits:
                decision.update(culprits=culprits, cause="contention")
                self.world.trace.record(
                    "fleet", "contention", app=placed.app,
                    culprits=tuple(culprits), target=verdict.target,
                )
        if runs_now(verdict, self.system_manager, self.world.now):
            self.world.sim.spawn(
                self._execute(placed, verdict.target, decision),
                name=f"fleet-transition-{placed.app}",
            )

    def _execute(self, placed: PlacedPair, target: str, decision: dict):
        placed.in_transition = True
        try:
            report = yield from placed.engine.transition(
                target, context=placed.context
            )
            decision["executed"] = report.success
            if report.success:
                placed.transitions += 1
            else:
                placed.failed_transitions += 1
        except Exception:  # noqa: BLE001 - churn can race the swap
            decision["executed"] = False
            placed.failed_transitions += 1
        finally:
            placed.in_transition = False
        self.world.trace.record(
            "fleet", "decision", app=placed.app, kind=decision["kind"],
            target=decision["target"], executed=decision["executed"],
        )

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe counters for the eval layer."""
        return {
            "pairs": len(self.placed),
            "transitions": sum(p.transitions for p in self.placed),
            "failed_transitions": sum(
                p.failed_transitions for p in self.placed
            ),
            "contention_decisions": sum(
                1 for d in self.decisions if d["cause"] == "contention"
            ),
            "limp_decisions": sum(
                1 for d in self.decisions if d["cause"] == "limp"
            ),
            "pending_proposals": len(self.system_manager.pending),
            "final_ftms": {p.app: p.pair.ftm for p in self.placed},
        }
