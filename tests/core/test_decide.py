"""The mandatory/possible rule has one home: ``decide``.

Two pins.  (1) Over the full grid the scenario graph spans, ``decide``
equals the logic ``ResilienceManager.handle_trigger`` carried inline
before it was extracted (kept verbatim below as the reference).
(2) Figure 8's derivation (``_edges_for``) stays a separate function on
purpose — it enumerates every newly enabled option where the runtime
proposes one — so the graph is held against ``decide`` by a conformance
table instead.
"""

from collections import Counter

import pytest

from repro.core import verify_no_oscillation
from repro.core.consistency import evaluate_ftm
from repro.core.transition_graph import (
    EVENTS,
    _edges_for,
    build_scenario_graph,
    decide,
    event,
    scenario_states,
    select_target,
    state_label,
)
from repro.ftm.catalog import FTM_NAMES

STATES = {state.label: state for state in scenario_states()}
EVENT_NAMES = (None,) + tuple(e.name for e in EVENTS)


def _context(label, event_name):
    context = STATES[label].context
    return context if event_name is None else event(event_name).apply(context)


def _reference(current_ftm, context):
    """``handle_trigger``'s inline rule as of the parent commit, verbatim."""
    current = evaluate_ftm(current_ftm, context)
    if not current.valid or current.degraded:
        # mandatory move: pick the differential-friendly target
        target = select_target(current_ftm, context)
    else:
        # merely-possible move: consider the globally best FTM without
        # stickiness — the System Manager weighs the transition cost
        best = select_target(None, context)
        target = current_ftm
        if (
            best is not None
            and best != current_ftm
            and evaluate_ftm(best, context).cost < current.cost
        ):
            target = best
    if not current.valid or current.degraded:
        return "mandatory", target
    return ("none" if target == current_ftm else "possible"), target


@pytest.mark.parametrize("ftm", FTM_NAMES)
@pytest.mark.parametrize("event_name", EVENT_NAMES)
@pytest.mark.parametrize("label", STATES)
def test_decide_equals_the_former_inline_rule(label, event_name, ftm):
    context = _context(label, event_name)
    verdict = decide(ftm, context)
    assert (verdict.kind, verdict.target) == _reference(ftm, context)
    assert verdict.current == evaluate_ftm(ftm, context)


def test_grid_covers_both_quiet_outcomes_of_a_mandatory_verdict():
    # counts measured read-only on the parent tree with the reference above
    quiet = Counter()
    for label in STATES:
        for event_name in EVENT_NAMES:
            context = _context(label, event_name)
            for ftm in FTM_NAMES:
                verdict = decide(ftm, context)
                assert verdict.moves == (verdict.target not in (None, ftm))
                if verdict.kind == "mandatory" and not verdict.moves:
                    quiet[verdict.target is None] += 1
                else:
                    assert verdict.moves == (verdict.kind != "none")
    assert quiet == {True: 108, False: 15}  # no valid FTM / target is the current FTM


# -- Figure 8 conformance ----------------------------------------------------------


def _conformance_shape(state, parameter_event, new_context):
    graph = {
        (edge.kind, edge.target)
        for edge in _edges_for(state, parameter_event, new_context)
        if edge.kind != "intra"
    }
    verdict = decide(state.ftm, new_context)
    label = state_label(verdict.target, new_context)
    if verdict.target is not None and not verdict.moves:
        runtime = set()
    elif label == state.label:
        # the only label holding two FTMs is a+duplex (a+pbr <-> a+lfr)
        assert verdict.kind == "mandatory" and label == "a+duplex"
        assert not graph
        return "label-internal"
    else:
        runtime = {(verdict.kind, label)}
    if graph == runtime:
        return "identical"
    # every disagreement is the graph offering *possible* options
    assert graph and all(kind == "possible" for kind, _target in graph), (
        state.label, parameter_event.name, graph, runtime,
    )
    if runtime:
        assert runtime < graph
        return "graph lists a superset of the proposal"
    assert not verdict.moves
    return "graph lists options, runtime proposes none"


def test_figure8_conforms_to_decide():
    shapes = Counter()
    for state in scenario_states():
        if state.ftm is None:
            continue
        for parameter_event in EVENTS:
            new_context = parameter_event.apply(state.context)
            if new_context != state.context:
                shapes[_conformance_shape(state, parameter_event, new_context)] += 1
    assert shapes == {
        "identical": 30,
        "graph lists a superset of the proposal": 6,
        "graph lists options, runtime proposes none": 6,
        "label-internal": 2,
    }


def test_scenario_graph_is_unchanged():
    states, edges = build_scenario_graph()
    assert (len(states), len(edges)) == (8, 56)
    assert verify_no_oscillation(edges) == []
