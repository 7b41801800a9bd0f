"""Transition graphs: Figure 2 (FTM-level) and Figure 8 (scenario-level).

Figure 2's graph is static domain knowledge: which FTM pairs are
connected, and which (FT, A, R) dimension labels their edges.

Figure 8's *extended graph of transition scenarios* is **derived** from
the consistency model rather than hand-drawn: for every scenario state
(an FTM plus the application characteristics that matter) and every
parameter-change event, we apply the event to the state's context and ask
the selection logic what must happen.  The result reproduces the paper's
taxonomy:

* **mandatory** transitions — the event invalidates or degrades the
  current FTM (executed automatically);
* **possible** transitions — the current FTM stays valid but a strictly
  better one exists (the System Manager decides);
* **intra-FTM** transitions — same FTM, different sub-state (e.g. PBR
  when the application becomes deterministic).

Detection and nature follow the paper's legend: R variations are caught
by probes and treated reactively; A variations come from the manager
(application versioning) and are reactive; FT variations come from the
manager/safety analysis and must be handled **proactively**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.consistency import ValidityReport, evaluate_ftm, rank_ftms
from repro.core.parameters import (
    ApplicationCharacteristics,
    FaultClass,
    FaultToleranceRequirements,
    ResourceState,
    SystemContext,
)
from repro.ftm.catalog import FTM_NAMES, variable_feature_distance

# ---------------------------------------------------------------------------
# Figure 2: the FTM-level transition graph
# ---------------------------------------------------------------------------

#: Undirected edges of Figure 2, labelled with the triggering dimensions.
FIGURE2_EDGES: Tuple[Tuple[str, str, FrozenSet[str]], ...] = (
    ("pbr", "lfr", frozenset({"A", "R"})),
    ("pbr", "pbr+tr", frozenset({"FT"})),
    ("lfr", "lfr+tr", frozenset({"FT"})),
    ("pbr+tr", "lfr+tr", frozenset({"A", "R"})),
    ("pbr", "a+duplex", frozenset({"FT"})),
    ("lfr", "a+duplex", frozenset({"FT"})),
    ("pbr+tr", "a+duplex", frozenset({"A", "FT"})),
    ("lfr+tr", "a+duplex", frozenset({"A", "FT"})),
)

FIGURE2_NODES: Tuple[str, ...] = ("pbr", "lfr", "pbr+tr", "lfr+tr", "a+duplex")


def figure2_graph() -> Dict[str, List[Tuple[str, FrozenSet[str]]]]:
    """Adjacency view of Figure 2 (both directions of every edge)."""
    graph: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {
        node: [] for node in FIGURE2_NODES
    }
    for a, b, labels in FIGURE2_EDGES:
        graph[a].append((b, labels))
        graph[b].append((a, labels))
    for neighbours in graph.values():
        neighbours.sort()
    return graph


# ---------------------------------------------------------------------------
# Parameter-change events (the edge labels of Figure 8)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParameterEvent:
    """One change of an (FT, A, R) parameter."""

    name: str
    dimension: str  # "FT" | "A" | "R"
    apply: Callable[[SystemContext], SystemContext]
    #: Gray-failure exception to the detection rule below: limping is an
    #: FT event the latency-percentile *probes* observe directly.
    probe_detected: bool = False

    @property
    def detection(self) -> str:
        """Probes catch R variations; A and FT need manager/developer input."""
        if self.probe_detected:
            return "probe"
        return "probe" if self.dimension == "R" else "manager"

    @property
    def nature(self) -> str:
        """FT-triggered transitions are proactive; A and R are reactive."""
        return "proactive" if self.dimension == "FT" else "reactive"


def _ft(add: Tuple[FaultClass, ...] = (), remove: Tuple[FaultClass, ...] = ()):
    def apply(context: SystemContext) -> SystemContext:
        classes = set(context.ft.fault_classes) | set(add)
        classes -= set(remove)
        return context.with_ft(FaultToleranceRequirements(frozenset(classes)))

    return apply


def _a(**changes):
    def apply(context: SystemContext) -> SystemContext:
        return context.with_a(context.a.with_update(**changes))

    return apply


def _r(**changes):
    def apply(context: SystemContext) -> SystemContext:
        return context.with_r(context.r.with_update(**changes))

    return apply


EVENTS: Tuple[ParameterEvent, ...] = (
    ParameterEvent("bandwidth-drop", "R", _r(bandwidth_ok=False)),
    ParameterEvent("bandwidth-increase", "R", _r(bandwidth_ok=True)),
    ParameterEvent("cpu-drop", "R", _r(cpu_ok=False)),
    ParameterEvent("cpu-increase", "R", _r(cpu_ok=True)),
    ParameterEvent("state-access-loss", "A", _a(state_accessible=False)),
    ParameterEvent("state-access", "A", _a(state_accessible=True)),
    ParameterEvent("application-determinism", "A", _a(deterministic=True)),
    ParameterEvent("application-non-determinism", "A", _a(deterministic=False)),
    ParameterEvent(
        "hardware-aging", "FT", _ft(add=(FaultClass.TRANSIENT_VALUE,))
    ),
    ParameterEvent(
        "hardware-replaced",
        "FT",
        _ft(remove=(FaultClass.TRANSIENT_VALUE, FaultClass.PERMANENT_VALUE)),
    ),
    ParameterEvent(
        "critical-phase-start",
        "FT",
        _ft(add=(FaultClass.TRANSIENT_VALUE, FaultClass.PERMANENT_VALUE)),
    ),
    ParameterEvent(
        "critical-phase-end",
        "FT",
        _ft(remove=(FaultClass.TRANSIENT_VALUE, FaultClass.PERMANENT_VALUE)),
    ),
)


#: Gray-failure events: FT-dimension (hence *proactive* — the paper's
#: reactive-vs-proactive split) but probe-detected, because the
#: Monitoring Engine's latency percentiles see limping directly.  Kept
#: out of :data:`EVENTS` so Figure 8's scenario graph and its inverse
#: bookkeeping stay exactly the paper's.
GRAY_EVENTS: Tuple[ParameterEvent, ...] = (
    ParameterEvent(
        "node-limping", "FT", _ft(add=(FaultClass.LIMP,)),
        probe_detected=True,
    ),
    ParameterEvent(
        "node-recovered", "FT", _ft(remove=(FaultClass.LIMP,)),
        probe_detected=True,
    ),
)


def event(name: str) -> ParameterEvent:
    """Look a parameter event up by name."""
    for candidate in EVENTS + GRAY_EVENTS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown parameter event {name!r}")


# ---------------------------------------------------------------------------
# Target selection with differential stickiness, and the one rule over it
# ---------------------------------------------------------------------------

#: Score weight of one variable feature a transition would replace.
STICKINESS = 0.8
#: Score weight of one fault class an FTM tolerates that nobody asked for.
OVER_COVERAGE_WEIGHT = 0.3


def select_target(
    current_ftm: Optional[str], context: SystemContext
) -> Optional[str]:
    """The FTM the system should run under ``context``.

    Among valid candidates, minimise ``cost + STICKINESS × distance +
    over-coverage penalty``: distance counts the variable features a
    transition from ``current_ftm`` would replace (the differential
    philosophy applied to selection — so PBR under a fault-model extension
    composes to PBR⊕TR rather than jumping families), and over-coverage
    penalises FTMs that tolerate fault classes nobody asked for (extra
    assertions and redundancy carry real maintenance and energy cost).

    Returns ``None`` when no FTM is valid ("No generic solution").
    """
    reports = [evaluate_ftm(ftm, context) for ftm in FTM_NAMES]
    valid = [r for r in reports if r.valid]
    if not valid:
        return None

    def over_coverage(report) -> int:
        from repro.ftm.catalog import PATTERN_CLASSES

        covered = set(PATTERN_CLASSES[report.ftm].FAULT_MODELS)
        return len(covered - context.ft.names())

    def score(report) -> Tuple:
        distance = (
            variable_feature_distance(current_ftm, report.ftm)
            if current_ftm in FTM_NAMES
            else 0
        )
        return (
            not report.preferred,
            report.cost
            + STICKINESS * distance
            + OVER_COVERAGE_WEIGHT * over_coverage(report),
            report.ftm,
        )

    return min(valid, key=score).ftm


@dataclass(frozen=True)
class Decision:
    """The rule's verdict on one running FTM under one context."""

    kind: str                #: "none" | "mandatory" | "possible"
    target: Optional[str]    #: ``None``: no FTM is valid; the running FTM: stay
    current: ValidityReport  #: the running FTM's report — the reasons travel along

    @property
    def moves(self) -> bool:
        """Does the verdict name an FTM other than the running one?"""
        return self.target not in (None, self.current.ftm)


def decide(current_ftm: str, context: SystemContext) -> Decision:
    """The mandatory/possible rule (paper Sec. 3 and 5.4), stated once.

    **Mandatory** — the running FTM is invalid or degraded: it moves by
    itself to the differential-friendly target (``None`` when nothing is
    valid, itself when nothing valid differs from it).  **Possible** — it
    still fits, but the best FTM chosen *without* stickiness is strictly
    cheaper: the System Manager weighs the transition cost.  Else **none**.
    """
    current = evaluate_ftm(current_ftm, context)
    if not current.valid or current.degraded:
        return Decision("mandatory", select_target(current_ftm, context), current)
    best = select_target(None, context)
    if best != current_ftm and evaluate_ftm(best, context).cost < current.cost:
        return Decision("possible", best, current)
    return Decision("none", current_ftm, current)


# ---------------------------------------------------------------------------
# Figure 8: the derived scenario graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioState:
    """A node of Figure 8: an FTM (or none) plus its defining context."""

    label: str
    ftm: Optional[str]
    context: SystemContext

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ScenarioEdge:
    """A directed edge of Figure 8."""

    source: str
    target: str
    event: str
    kind: str        #: "mandatory" | "possible" | "intra"
    detection: str   #: "probe" | "manager"
    nature: str      #: "reactive" | "proactive"


def state_label(ftm: Optional[str], context: SystemContext) -> str:
    """The Figure 8 node label for an FTM under a context."""
    if ftm is None:
        return "no-generic-solution"
    if ftm in ("a+pbr", "a+lfr"):
        return "a+duplex"
    if ftm == "pbr":
        suffix = "determinism" if context.a.deterministic else "non-determinism"
        return f"pbr ({suffix})"
    if ftm == "lfr":
        suffix = "state access" if context.a.state_accessible else "no state access"
        return f"lfr ({suffix})"
    return ftm


def _ctx(
    fault_classes=(FaultClass.CRASH,),
    deterministic=True,
    state_accessible=True,
    bandwidth_ok=True,
    cpu_ok=True,
) -> SystemContext:
    return SystemContext(
        ft=FaultToleranceRequirements(frozenset(fault_classes)),
        a=ApplicationCharacteristics(
            deterministic=deterministic, state_accessible=state_accessible
        ),
        r=ResourceState(bandwidth_ok=bandwidth_ok, cpu_ok=cpu_ok),
    )


def scenario_states() -> Tuple[ScenarioState, ...]:
    """The representative states of Figure 8."""
    return (
        ScenarioState("pbr (determinism)", "pbr", _ctx()),
        ScenarioState(
            "pbr (non-determinism)", "pbr", _ctx(deterministic=False)
        ),
        ScenarioState(
            "lfr (state access)", "lfr", _ctx(bandwidth_ok=False)
        ),
        ScenarioState(
            "lfr (no state access)", "lfr", _ctx(state_accessible=False)
        ),
        ScenarioState(
            "lfr+tr",
            "lfr+tr",
            _ctx(
                fault_classes=(FaultClass.CRASH, FaultClass.TRANSIENT_VALUE),
                bandwidth_ok=False,
            ),
        ),
        # Figure 8 omits PBR⊕TR as a state, but the derivation produces
        # edges into it (aging under PBR composes within the family), so we
        # close the graph with its representative — otherwise the scenario
        # space would have a dead end the controller could enter.
        ScenarioState(
            "pbr+tr",
            "pbr+tr",
            _ctx(fault_classes=(FaultClass.CRASH, FaultClass.TRANSIENT_VALUE)),
        ),
        ScenarioState(
            "a+duplex",
            "a+pbr",
            _ctx(
                fault_classes=(
                    FaultClass.CRASH,
                    FaultClass.TRANSIENT_VALUE,
                    FaultClass.PERMANENT_VALUE,
                )
            ),
        ),
        ScenarioState(
            "no-generic-solution",
            None,
            _ctx(deterministic=False, state_accessible=False),
        ),
    )


def build_scenario_graph() -> Tuple[Tuple[ScenarioState, ...], Tuple[ScenarioEdge, ...]]:
    """Derive the Figure 8 graph from the consistency model."""
    states = scenario_states()
    edges: List[ScenarioEdge] = []

    for state in states:
        for parameter_event in EVENTS:
            new_context = parameter_event.apply(state.context)
            if new_context == state.context:
                continue  # the event does not change this state's context
            edges.extend(_edges_for(state, parameter_event, new_context))

    return states, tuple(edges)


def _edges_for(
    state: ScenarioState, parameter_event: ParameterEvent, new_context: SystemContext
) -> List[ScenarioEdge]:
    def edge(target_label: str, kind: str) -> ScenarioEdge:
        return ScenarioEdge(
            source=state.label,
            target=target_label,
            event=parameter_event.name,
            kind=kind,
            detection=parameter_event.detection,
            nature=parameter_event.nature,
        )

    # Escaping the no-generic-solution state: any valid FTM is mandatory.
    if state.ftm is None:
        target_ftm = select_target(None, new_context)
        if target_ftm is None:
            return []
        return [edge(state_label(target_ftm, new_context), "mandatory")]

    current = evaluate_ftm(state.ftm, new_context)
    best_ftm = select_target(state.ftm, new_context)

    # The current FTM became INVALID: mandatory transition (possibly into
    # the no-generic-solution sink).
    if not current.valid:
        target_label = state_label(best_ftm, new_context)
        if target_label == state.label:
            return []
        return [edge(target_label, "mandatory")]

    # The current FTM became DEGRADED (an R constraint bites): mandatory
    # if a preferred replacement exists; otherwise a cheaper valid FTM is
    # merely a possible improvement.
    if current.degraded:
        if best_ftm is not None and best_ftm != state.ftm:
            best_report = evaluate_ftm(best_ftm, new_context)
            target_label = state_label(best_ftm, new_context)
            if target_label != state.label:
                kind = "mandatory" if best_report.preferred else "possible"
                if best_report.preferred or best_report.cost < current.cost:
                    return [edge(target_label, kind)]
        # no better option: fall through to check for cheaper valid FTMs
        cheaper = [
            report
            for report in rank_ftms(new_context)
            if report.valid
            and report.cost < current.cost
            and state_label(report.ftm, new_context) != state.label
        ]
        if cheaper:
            return [edge(state_label(cheaper[0].ftm, new_context), "possible")]
        return []

    # The current FTM is still valid and preferred.
    out: List[ScenarioEdge] = []
    intra_label = state_label(state.ftm, new_context)
    if intra_label != state.label:
        out.append(edge(intra_label, "intra"))

    # Possible transitions: FTMs this event newly enabled (invalid or
    # degraded before, valid + preferred now).
    seen_labels = {state.label, intra_label}
    for candidate in FTM_NAMES:
        if candidate == state.ftm:
            continue
        label = state_label(candidate, new_context)
        if label in seen_labels:
            continue
        now = evaluate_ftm(candidate, new_context)
        before = evaluate_ftm(candidate, state.context)
        if now.valid and now.preferred and not (before.valid and before.preferred):
            out.append(edge(label, "possible"))
            seen_labels.add(label)
    return out


def mandatory_edges(edges=None) -> List[ScenarioEdge]:
    """The automatic edges of the scenario graph."""
    if edges is None:
        _states, edges = build_scenario_graph()
    return [e for e in edges if e.kind == "mandatory"]


def possible_edges(edges=None) -> List[ScenarioEdge]:
    """The manager-decided edges of the scenario graph."""
    if edges is None:
        _states, edges = build_scenario_graph()
    return [e for e in edges if e.kind == "possible"]
