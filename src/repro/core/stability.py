"""Stability of the adaptation loop (paper Sec. 5.4).

Adaptive fault tolerance is a closed loop: a parameter oscillating near a
reconfiguration threshold can make the system reconfigure over and over,
destroying availability.  The paper's defence is structural: **the
reverse of a mandatory transition is always a possible one**, so once a
mandatory transition fires, the system cannot bounce back without a
System Manager decision.  (What makes a transition mandatory or possible
is :func:`~repro.core.transition_graph.decide` — DESIGN.md, "Decisions:
one rule".)

This module provides (a) a static verifier of that property on the
derived scenario graph and (b) a closed-loop oscillation experiment used
by the stability benchmark: a bandwidth signal oscillating around the
threshold, replayed against the automatic policy with and without the
man-in-the-loop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parameters import SystemContext
from repro.core.transition_graph import (
    ScenarioEdge,
    build_scenario_graph,
    decide,
    event,
    select_target,
)

#: Events that undo each other (the oscillation axes of Sec. 5.4).
INVERSE_EVENTS: Dict[str, str] = {
    "bandwidth-drop": "bandwidth-increase",
    "bandwidth-increase": "bandwidth-drop",
    "cpu-drop": "cpu-increase",
    "cpu-increase": "cpu-drop",
    "state-access-loss": "state-access",
    "state-access": "state-access-loss",
    "application-determinism": "application-non-determinism",
    "application-non-determinism": "application-determinism",
    "hardware-aging": "hardware-replaced",
    "hardware-replaced": "hardware-aging",
    "critical-phase-start": "critical-phase-end",
    "critical-phase-end": "critical-phase-start",
}


@dataclass(frozen=True)
class StabilityViolation:
    edge: ScenarioEdge
    reverse_kinds: Tuple[str, ...]
    reason: str


def verify_no_oscillation(edges: Optional[Tuple[ScenarioEdge, ...]] = None) -> List[StabilityViolation]:
    """Check: no mandatory inter-FTM edge has a mandatory reverse.

    Edges into/out of the ``no-generic-solution`` sink are exempt: its
    escapes are necessarily mandatory, and its parameters (determinism,
    state access) are manager-reported, not oscillating probe signals.
    """
    if edges is None:
        _states, edges = build_scenario_graph()

    reverse_kinds: Dict[Tuple[str, str], set] = {}
    for candidate in edges:
        key = (candidate.source, candidate.target)
        reverse_kinds.setdefault(key, set()).add(candidate.kind)

    violations: List[StabilityViolation] = []
    for candidate in edges:
        if candidate.kind != "mandatory":
            continue
        if "no-generic-solution" in (candidate.source, candidate.target):
            continue
        kinds = reverse_kinds.get((candidate.target, candidate.source), set())
        if "mandatory" in kinds:
            violations.append(
                StabilityViolation(
                    edge=candidate,
                    reverse_kinds=tuple(sorted(kinds)),
                    reason="reverse transition is also mandatory: the loop "
                    "can oscillate without any manager decision",
                )
            )
    return violations


@dataclass
class OscillationOutcome:
    """Result of replaying an oscillating parameter against a policy."""

    transitions: int
    trajectory: List[str] = field(default_factory=list)


def replay_oscillation(
    initial_ftm: str,
    initial_context: SystemContext,
    events: List[str],
    man_in_the_loop: bool = True,
) -> OscillationOutcome:
    """Replay a parameter-event sequence through the decision policy.

    With ``man_in_the_loop=True`` (the paper's rule) only the mandatory
    verdicts of :func:`~repro.core.transition_graph.decide` execute; with
    ``False`` the system greedily chases the globally optimal FTM after
    every parameter change — the naive closed-loop policy that oscillates
    around a flapping threshold.
    """
    ftm = initial_ftm
    context = initial_context
    outcome = OscillationOutcome(transitions=0, trajectory=[ftm])

    for event_name in events:
        before, context = context, event(event_name).apply(context)
        if man_in_the_loop:
            verdict = decide(ftm, context, before)
            target = verdict.target if verdict.kind == "mandatory" else None
        else:
            target = select_target(None, context)
        if target is not None and target != ftm:
            ftm = target
            outcome.transitions += 1
        outcome.trajectory.append(ftm)

    return outcome
