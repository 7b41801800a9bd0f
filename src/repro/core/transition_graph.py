"""Transition graphs: Figure 2 (FTM-level) and Figure 8 (scenario-level).

Figure 2's graph is static domain knowledge: which FTM pairs are
connected, and which (FT, A, R) dimension labels their edges.

Figure 8's *extended graph of transition scenarios* is **derived** from
the consistency model rather than hand-drawn: for every scenario state
(an FTM plus the application characteristics that matter) and every
parameter-change event, we apply the event to the state's context and ask
:func:`decide`, the rule the running system follows, what must happen.
The result reproduces the paper's taxonomy:

* **mandatory** transitions — the event invalidates or degrades the
  current FTM (executed automatically);
* **possible** transitions — the current FTM stays valid and preferred,
  but the event enabled another FTM or a strictly cheaper one exists
  (the System Manager decides);
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

from repro.core.consistency import ValidityReport, evaluate_ftm
from repro.core.parameters import (
    ApplicationCharacteristics,
    FaultClass,
    FaultToleranceRequirements,
    ResourceState,
    SystemContext,
)
from repro.ftm.catalog import FTM_NAMES, PATTERN_CLASSES, variable_feature_distance

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


def _score(report: ValidityReport, current_ftm: Optional[str], context: SystemContext) -> Tuple:
    """Selection order: preferred first, then ``cost + STICKINESS ×
    distance + over-coverage penalty``, then the name."""
    distance = (
        variable_feature_distance(current_ftm, report.ftm) if current_ftm in FTM_NAMES else 0
    )
    over_coverage = len(set(PATTERN_CLASSES[report.ftm].FAULT_MODELS) - context.ft.names())
    return (
        not report.preferred,
        report.cost + STICKINESS * distance + OVER_COVERAGE_WEIGHT * over_coverage,
        report.ftm,
    )


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
    valid = [r for r in (evaluate_ftm(ftm, context) for ftm in FTM_NAMES) if r.valid]
    if not valid:
        return None
    return min(valid, key=lambda report: _score(report, current_ftm, context)).ftm


@dataclass(frozen=True)
class Decision:
    """The rule's verdict on one running FTM under one context."""

    kind: str                #: "none" | "mandatory" | "possible"
    target: Optional[str]    #: ``None``: no FTM is valid; the running FTM: stay
    #: the running FTM's report, so the reasons travel along (``None``: no FTM runs)
    current: Optional[ValidityReport]
    options: Tuple[str, ...] = ()  #: a possible verdict's offers, best first

    @property
    def moves(self) -> bool:
        """Does the verdict name an FTM other than the running one?"""
        return self.target not in (None, self.current and self.current.ftm)


def decide(
    current_ftm: Optional[str], context: SystemContext, before: SystemContext
) -> Decision:
    """The mandatory/possible rule (paper Sec. 3 and 5.4), stated once.

    ``before`` is the context the event that produced ``context`` found.
    **Mandatory** — no FTM runs, or the running one is invalid or
    degraded: it moves by itself to the differential-friendly target
    (``None`` when nothing is valid, itself when nothing valid differs
    from it).  **Possible** — it still fits, and ``options`` lists every
    other FTM valid and preferred now that either was not under
    ``before`` (the event enabled it) or is the best FTM chosen *without*
    stickiness and strictly cheaper; the System Manager weighs the
    transition cost.  ``options`` is in :func:`select_target`'s order, so
    ``target`` is its first entry.  Else **none**.
    """
    current = None if current_ftm is None else evaluate_ftm(current_ftm, context)
    if current is None or not current.valid or current.degraded:
        return Decision("mandatory", select_target(current_ftm, context), current)
    best = select_target(None, context)
    options = tuple(
        report.ftm
        for report in sorted(
            (evaluate_ftm(ftm, context) for ftm in FTM_NAMES if ftm != current_ftm),
            key=lambda report: _score(report, None, context),
        )
        if report.preferred
        and (
            not evaluate_ftm(report.ftm, before).preferred
            or (report.ftm == best and report.cost < current.cost)
        )
    )
    if options:
        return Decision("possible", options[0], current, options)
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
    """Derive the Figure 8 graph from :func:`decide`.

    Each (state, event) pair gives an intra-FTM edge when the running
    FTM stays put under a new label, plus one edge per distinct label of
    the verdict's mandatory move or possible options.
    """
    states = scenario_states()
    edges: List[ScenarioEdge] = []
    for state in states:
        for parameter_event in EVENTS:
            new_context = parameter_event.apply(state.context)
            if new_context == state.context:
                continue  # the event does not change this state's context
            verdict = decide(state.ftm, new_context, state.context)
            if verdict.kind == "mandatory":
                targets = {state_label(verdict.target, new_context): "mandatory"}
            else:
                targets = {state_label(state.ftm, new_context): "intra"}
                for ftm in verdict.options:
                    targets.setdefault(state_label(ftm, new_context), "possible")
            edges.extend(
                ScenarioEdge(
                    source=state.label,
                    target=label,
                    event=parameter_event.name,
                    kind=kind,
                    detection=parameter_event.detection,
                    nature=parameter_event.nature,
                )
                for label, kind in targets.items()
                if label != state.label
            )
    return states, tuple(edges)
