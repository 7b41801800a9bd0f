"""Tests for the (FT, A, R) model, FTM selection, and the transition graphs."""

import pytest

from repro.core import (
    FaultClass,
    NoValidFTM,
    build_scenario_graph,
    evaluate_ftm,
    figure2_graph,
    rank_ftms,
    select_ftm,
    select_target,
)
from repro.core.transition_graph import EVENTS, _ctx, decide, event
from repro.ftm import FTM_NAMES


def ctx(**kwargs):
    return _ctx(**kwargs)


# -- evaluate_ftm ------------------------------------------------------------------


def test_pbr_valid_for_default_context():
    report = evaluate_ftm("pbr", ctx())
    assert report.valid and report.preferred


def test_lfr_invalid_for_non_deterministic_app():
    report = evaluate_ftm("lfr", ctx(deterministic=False))
    assert not report.valid
    assert any("non-deterministic" in r for r in report.reasons)


def test_pbr_invalid_without_state_access():
    report = evaluate_ftm("pbr", ctx(state_accessible=False))
    assert not report.valid
    assert any("state access" in r for r in report.reasons)


def test_pbr_degraded_on_low_bandwidth():
    report = evaluate_ftm("pbr", ctx(bandwidth_ok=False))
    assert report.valid
    assert report.degraded
    assert not report.preferred


def test_lfr_degraded_on_low_cpu():
    report = evaluate_ftm("lfr", ctx(cpu_ok=False))
    assert report.degraded


def test_pbr_does_not_cover_transient_faults():
    report = evaluate_ftm(
        "pbr", ctx(fault_classes=(FaultClass.CRASH, FaultClass.TRANSIENT_VALUE))
    )
    assert not report.valid


def test_only_a_duplex_covers_permanent_faults():
    context = ctx(
        fault_classes=(
            FaultClass.CRASH,
            FaultClass.TRANSIENT_VALUE,
            FaultClass.PERMANENT_VALUE,
        )
    )
    valid = [ftm for ftm in FTM_NAMES if evaluate_ftm(ftm, context).valid]
    assert sorted(valid) == ["a+lfr", "a+pbr"]


# -- selection -------------------------------------------------------------------------


def test_default_selection_is_pbr():
    assert select_ftm(ctx()).ftm == "pbr"


def test_selection_raises_when_no_generic_solution():
    with pytest.raises(NoValidFTM):
        select_ftm(ctx(deterministic=False, state_accessible=False))


def test_rank_orders_valid_before_invalid():
    ranked = rank_ftms(ctx(deterministic=False))
    valid_flags = [r.valid for r in ranked]
    assert valid_flags == sorted(valid_flags, reverse=True)


def test_select_target_prefers_differential_proximity():
    aging = ctx(fault_classes=(FaultClass.CRASH, FaultClass.TRANSIENT_VALUE))
    assert select_target("pbr", aging) == "pbr+tr"
    assert select_target("lfr", aging) == "lfr+tr"


def test_select_target_critical_phase_goes_a_duplex():
    critical = ctx(
        fault_classes=(
            FaultClass.CRASH,
            FaultClass.TRANSIENT_VALUE,
            FaultClass.PERMANENT_VALUE,
        )
    )
    assert select_target("pbr", critical) == "a+pbr"
    assert select_target("lfr", critical) in ("a+lfr", "a+pbr")


def test_select_target_none_for_impossible_context():
    assert select_target("pbr", ctx(deterministic=False, state_accessible=False)) is None


def test_transition_necessity_classes():
    assert decide("pbr", ctx(), ctx()).kind == "none"
    assert decide("pbr", ctx(bandwidth_ok=False), ctx()).kind == "mandatory"
    assert decide("pbr", ctx(state_accessible=False), ctx()).kind == "mandatory"


def test_is_consistent():
    assert evaluate_ftm("pbr", ctx()).valid
    assert not evaluate_ftm("pbr", ctx(state_accessible=False)).valid


# -- Figure 2 graph ---------------------------------------------------------------------


def test_figure2_graph_structure():
    graph = figure2_graph()
    assert set(graph) == {"pbr", "lfr", "pbr+tr", "lfr+tr", "a+duplex"}
    neighbours = dict(graph["pbr"])
    assert "lfr" in neighbours
    assert neighbours["lfr"] == frozenset({"A", "R"})
    assert neighbours["pbr+tr"] == frozenset({"FT"})
    # symmetric
    assert ("pbr", frozenset({"A", "R"})) in graph["lfr"]


# -- Figure 8 scenario graph ------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario():
    states, edges = build_scenario_graph()
    return states, edges


def test_scenario_states_cover_figure8(scenario):
    states, _edges = scenario
    labels = {s.label for s in states}
    assert labels == {
        "pbr (determinism)",
        "pbr (non-determinism)",
        "lfr (state access)",
        "lfr (no state access)",
        "lfr+tr",
        "pbr+tr",  # closes the graph (see transition_graph.scenario_states)
        "a+duplex",
        "no-generic-solution",
    }


def edge_set(edges, **filters):
    out = []
    for e in edges:
        if all(getattr(e, k) == v for k, v in filters.items()):
            out.append(e)
    return out


def test_bandwidth_drop_forces_pbr_to_lfr(scenario):
    _states, edges = scenario
    found = edge_set(
        edges, source="pbr (determinism)", event="bandwidth-drop"
    )
    assert len(found) == 1
    assert found[0].target == "lfr (state access)"
    assert found[0].kind == "mandatory"
    assert found[0].detection == "probe"
    assert found[0].nature == "reactive"


def test_state_access_loss_forces_pbr_to_lfr(scenario):
    _states, edges = scenario
    found = edge_set(
        edges, source="pbr (determinism)", event="state-access-loss"
    )
    assert found and found[0].target == "lfr (no state access)"
    assert found[0].kind == "mandatory"
    assert found[0].detection == "manager"


def test_hardware_aging_is_proactive_lfr_to_lfr_tr(scenario):
    _states, edges = scenario
    found = edge_set(edges, source="lfr (state access)", event="hardware-aging")
    assert found and found[0].target == "lfr+tr"
    assert found[0].kind == "mandatory"
    assert found[0].nature == "proactive"


def test_non_determinism_without_state_is_no_generic_solution(scenario):
    _states, edges = scenario
    found = edge_set(
        edges,
        source="pbr (non-determinism)",
        event="state-access-loss",
    )
    assert found and found[0].target == "no-generic-solution"


def test_intra_ftm_edges_exist(scenario):
    _states, edges = scenario
    intra = edge_set(edges, kind="intra")
    pairs = {(e.source, e.target) for e in intra}
    assert ("pbr (determinism)", "pbr (non-determinism)") in pairs
    assert ("pbr (non-determinism)", "pbr (determinism)") in pairs
    assert ("lfr (state access)", "lfr (no state access)") in pairs


def test_bandwidth_increase_back_to_pbr_is_possible_only(scenario):
    _states, edges = scenario
    found = edge_set(
        edges, source="lfr (state access)", event="bandwidth-increase",
        target="pbr (determinism)",
    )
    assert found and found[0].kind == "possible"


def test_r_events_probe_detected_others_manager(scenario):
    _states, edges = scenario
    for e in edges:
        dimension = event(e.event).dimension
        if dimension == "R":
            assert e.detection == "probe"
        else:
            assert e.detection == "manager"


def test_ft_edges_are_proactive(scenario):
    _states, edges = scenario
    for e in edges:
        if event(e.event).dimension == "FT":
            assert e.nature == "proactive"
        else:
            assert e.nature == "reactive"


def test_all_events_have_inverses():
    from repro.core.stability import INVERSE_EVENTS

    names = {e.name for e in EVENTS}
    assert set(INVERSE_EVENTS) == names
    for name, inverse in INVERSE_EVENTS.items():
        assert INVERSE_EVENTS[inverse] == name
