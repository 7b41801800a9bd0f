"""The mandatory/possible rule has one home: ``decide``.

Three pins.  (1) Over the full grid the scenario graph spans, ``decide``
with no event (``before`` equal to the context) equals the logic
``ResilienceManager.handle_trigger`` carried inline before it was
extracted (kept verbatim below as the reference).  (2) After an event,
the options it newly enabled join that proposal without displacing it.
(3) Figure 8 is drawn from ``decide``: every edge but the intra-FTM ones
is the verdict's move or one of its options.
"""

from collections import Counter

import pytest

from repro.core import verify_no_oscillation
from repro.core.consistency import evaluate_ftm
from repro.core.transition_graph import (
    EVENTS,
    GRAY_EVENTS,
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
    verdict = decide(ftm, context, context)
    assert (verdict.kind, verdict.target) == _reference(ftm, context)
    assert verdict.current == evaluate_ftm(ftm, context)


def test_grid_covers_both_quiet_outcomes_of_a_mandatory_verdict():
    # counts measured read-only on the parent tree with the reference above
    quiet = Counter()
    for label in STATES:
        for event_name in EVENT_NAMES:
            context = _context(label, event_name)
            for ftm in FTM_NAMES:
                verdict = decide(ftm, context, context)
                assert verdict.moves == (verdict.target not in (None, ftm))
                if verdict.kind == "mandatory" and not verdict.moves:
                    quiet[verdict.target is None] += 1
                else:
                    assert verdict.moves == (verdict.kind != "none")
    assert quiet == {True: 108, False: 15}  # no valid FTM / target is the current FTM


# -- the event-driven options -------------------------------------------------------


def _event_pairs(events=EVENTS):
    for state in scenario_states():
        for parameter_event in events:
            new_context = parameter_event.apply(state.context)
            if new_context != state.context:
                yield state, parameter_event, new_context


@pytest.mark.parametrize("ftm", FTM_NAMES)
def test_newly_enabled_options_never_displace_the_former_proposal(ftm):
    for state, _event, new_context in _event_pairs(EVENTS + GRAY_EVENTS):
        verdict = decide(ftm, new_context, state.context)
        kind, target = _reference(ftm, new_context)
        if kind == "none" and verdict.kind == "possible":
            # the event enabled it: invalid or degraded before, preferred now
            assert not evaluate_ftm(verdict.target, state.context).preferred
        else:
            assert (verdict.kind, verdict.target) == (kind, target)
        assert verdict.options[:1] == ((verdict.target,) if verdict.kind == "possible" else ())
        assert ftm not in verdict.options
        assert all(evaluate_ftm(option, new_context).preferred for option in verdict.options)


def test_four_scenario_verdicts_go_from_none_to_possible():
    changed = {}
    for state, parameter_event, new_context in _event_pairs(EVENTS + GRAY_EVENTS):
        if state.ftm is None:
            continue
        former = decide(state.ftm, new_context, new_context)
        verdict = decide(state.ftm, new_context, state.context)
        if (former.kind, former.target) != (verdict.kind, verdict.target):
            assert former.kind == "none"
            changed[state.label, parameter_event.name] = (verdict.kind, verdict.target)
    assert changed == {
        ("pbr (non-determinism)", "application-determinism"): ("possible", "lfr"),
        ("lfr+tr", "bandwidth-increase"): ("possible", "pbr+tr"),
        ("lfr+tr", "hardware-replaced"): ("possible", "lfr"),
        ("lfr+tr", "critical-phase-end"): ("possible", "lfr"),
    }


# -- Figure 8 is drawn from decide ---------------------------------------------------


def test_every_figure8_edge_is_a_move_or_option_of_decide():
    _states, edges = build_scenario_graph()
    drawn = {}
    for edge in edges:
        if edge.kind != "intra":
            drawn.setdefault((edge.source, edge.event), []).append(edge)
    pairs = list(_event_pairs())
    # 44 pairs with a running FTM, 6 escapes from no-generic-solution
    assert Counter(state.ftm is None for state, _e, _c in pairs) == {False: 44, True: 6}
    for state, parameter_event, new_context in pairs:
        verdict = decide(state.ftm, new_context, state.context)
        offered = (verdict.target,) if verdict.kind == "mandatory" else verdict.options
        labels = {state_label(ftm, new_context) for ftm in offered}
        pair_edges = drawn.pop((state.label, parameter_event.name), [])
        assert all(edge.kind == verdict.kind for edge in pair_edges)
        targets = [edge.target for edge in pair_edges]
        # one edge per offered label, bar the state itself and its intra edge
        assert len(targets) == len(set(targets))
        assert set(targets) == labels - {state.label, state_label(state.ftm, new_context)}
    assert drawn == {}


def test_scenario_graph_is_unchanged():
    states, edges = build_scenario_graph()
    assert (len(states), len(edges)) == (8, 54)
    assert Counter(edge.kind for edge in edges) == {
        "mandatory": 23, "possible": 27, "intra": 4,
    }
    # a mandatory verdict that keeps the running FTM offers nothing
    drawn = {(edge.source, edge.event) for edge in edges}
    assert not drawn & {("lfr (state access)", "cpu-drop"), ("pbr+tr", "cpu-drop")}
    assert verify_no_oscillation(edges) == []
