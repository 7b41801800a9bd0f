"""The Resilience Management Service and the System Manager (Figure 1/7).

The Resilience Management Service is the decision loop: it consumes
adaptation triggers, maintains the current (FT, A, R) context, asks
:func:`~repro.core.transition_graph.decide` for the verdict (DESIGN.md,
"Decisions: one rule") and acts on it: a mandatory move runs by itself,
a possible one waits for the System Manager — the man-in-the-loop the
paper credits with preventing oscillations.

It is also the entry point for off-line actors: application updates
(A changes, reactive) and fault-model updates (FT changes, proactive)
arrive through :meth:`notify_event` with ``source="manager"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.adaptation_engine import AdaptationEngine
from repro.core.monitoring import MonitoringEngine, Trigger
from repro.core.parameters import SystemContext
from repro.core.transition_graph import decide
from repro.core.transition_graph import event as lookup_event


@dataclass
class Proposal:
    """A possible transition awaiting the System Manager's decision."""

    time: float
    source_ftm: str
    target_ftm: str
    trigger: Trigger
    before: SystemContext  #: the context the trigger found
    approved: Optional[bool] = None
    stale: bool = False  #: approved, but the rule no longer offered its target


class SystemManager:
    """The human (or policy) in the adaptation loop.

    The default implementation queues proposals for explicit decisions —
    tests and examples call :meth:`decide`.  Subclass or pass
    ``auto_approve=True`` for an autonomous policy.
    """

    def __init__(self, auto_approve: bool = False):
        self.auto_approve = auto_approve
        self.pending: List[Proposal] = []
        self.decided: List[Proposal] = []

    def submit(self, proposal: Proposal) -> bool:
        """Returns True if the proposal is (immediately) approved."""
        if self.auto_approve:
            proposal.approved = True
            self.decided.append(proposal)
            return True
        self.pending.append(proposal)
        return False

    def decide(self, approve: bool) -> Optional[Proposal]:
        """Decide the oldest pending proposal."""
        if not self.pending:
            return None
        proposal = self.pending.pop(0)
        proposal.approved = approve
        self.decided.append(proposal)
        return proposal


class ResilienceManager:
    """The on-line decision loop over triggers."""

    def __init__(
        self,
        world,
        engine: AdaptationEngine,
        monitoring: MonitoringEngine,
        context: SystemContext,
        system_manager: Optional[SystemManager] = None,
    ):
        self.world = world
        self.engine = engine
        self.monitoring = monitoring
        self.context = context
        self.system_manager = system_manager or SystemManager()
        self.decisions: List[dict] = []
        self._process = None

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Begin consuming adaptation triggers."""
        if self._process is None or not self._process.alive:
            self._process = self.world.sim.spawn(self._loop(), name="resilience")

    def stop(self) -> None:
        """Halt the decision loop."""
        if self._process is not None and self._process.alive:
            self._process.kill()

    # -- manual notification (A and FT changes come from off-line actors) ---------------

    def notify_event(self, event_name: str, source: str = "manager") -> Trigger:
        """Inject a parameter-change event (e.g. after an application update)."""
        parameter_event = lookup_event(event_name)
        return self.monitoring.emit(parameter_event.dimension, event_name, source)

    # -- the decision loop -----------------------------------------------------------------

    def _loop(self):
        while True:
            trigger = yield self.monitoring.triggers.get()
            yield from self.handle_trigger(trigger)

    def handle_trigger(self, trigger: Trigger):
        """Update the context, decide, and possibly execute (generator)."""
        before = self.context
        self.context = lookup_event(trigger.event).apply(before)
        verdict = decide(self.engine.pair.ftm, self.context, before)
        decision = {
            "time": self.world.now,
            "trigger": trigger.event,
            "current": verdict.current.ftm,
            "target": verdict.target,
            "kind": "none",
            "executed": False,
        }
        if verdict.target is None:
            decision["kind"] = "no-generic-solution"
            self.world.trace.record(
                "resilience", "no_generic_solution", trigger=trigger.event
            )
        elif verdict.moves:
            decision["kind"] = verdict.kind
            # a mandatory move runs by itself; a possible one runs only if
            # the System Manager approves on submission (else it waits)
            if verdict.kind == "mandatory" or self.system_manager.submit(
                Proposal(time=self.world.now, source_ftm=verdict.current.ftm,
                         target_ftm=verdict.target, trigger=trigger,
                         before=before)
            ):
                report = yield from self.engine.transition(
                    verdict.target, context=self.context
                )
                decision["executed"] = report.success
                decision["outcome"] = report.outcome
                if report.success:
                    self.monitoring.reset_window()
            self.world.trace.record(
                "resilience",
                "decision",
                trigger=trigger.event,
                kind=verdict.kind,
                target=verdict.target,
                executed=decision["executed"],
            )
        self.decisions.append(decision)
        return decision

    # -- manager-approved execution of queued proposals --------------------------------------

    def execute_pending(self, approve: bool = True):
        """Decide the oldest queued proposal and run it if approved (generator).

        Approval re-enters the rule against the context the proposal's
        trigger found: the context may have moved since it was queued, so
        it runs only if :func:`decide` still offers its target; otherwise
        it is dropped as stale.
        """
        proposal = self.system_manager.decide(approve)
        if proposal is None or not proposal.approved:
            return None
        verdict = decide(self.engine.pair.ftm, self.context, proposal.before)
        if proposal.target_ftm not in verdict.options:
            proposal.stale = True
            self.world.trace.record(
                "resilience", "proposal_stale", source=proposal.source_ftm,
                target=proposal.target_ftm, current=verdict.current.ftm,
                decided=verdict.target,
            )
            return None
        report = yield from self.engine.transition(
            proposal.target_ftm, context=self.context
        )
        return report
