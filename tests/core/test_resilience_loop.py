"""Tests for Monitoring Engine, Resilience Manager, baseline, stability."""

import pytest

from repro.core import (
    AdaptationEngine,
    MonitoringEngine,
    PreprogrammedAdaptation,
    ResilienceManager,
    SystemManager,
    replay_oscillation,
    verify_no_oscillation,
)
from repro.core.consistency import evaluate_ftm
from repro.core.preprogrammed import preprogrammed_assembly
from repro.core.transition_graph import _ctx, scenario_states
from repro.ftm import Client, FTMPair, deploy_ftm_pair, ftm_assembly
from repro.kernel import Fault, World


def make_world(seed=50):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def deploy(world, ftm="pbr", **kwargs):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"], **kwargs)
        return pair

    return world.run_process(do(), name="deploy")


def stack(world, pair, auto_approve=False):
    engine = AdaptationEngine(world, pair)
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    manager = SystemManager(auto_approve=auto_approve)
    resilience = ResilienceManager(
        world, engine, monitoring, _ctx(), system_manager=manager
    )
    monitoring.start()
    resilience.start()
    return engine, monitoring, manager, resilience


# -- monitoring probes --------------------------------------------------------------


def test_bandwidth_probe_fires_on_link_degradation():
    world = make_world()
    deploy(world, "pbr")
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()
    world.run(until=world.now + 600.0)
    assert not any(
        t.event == "bandwidth-drop" for t in monitoring.trigger_history
    )
    world.network.set_link("alpha", "beta", bandwidth=500.0)  # collapse
    world.run(until=world.now + 600.0)
    drops = [t for t in monitoring.trigger_history if t.event == "bandwidth-drop"]
    assert len(drops) == 1
    assert drops[0].source == "probe"


def test_bandwidth_probe_hysteresis_no_repeat():
    world = make_world()
    deploy(world, "pbr")
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()
    world.network.set_link("alpha", "beta", bandwidth=500.0)
    world.run(until=world.now + 2_000.0)
    drops = [t for t in monitoring.trigger_history if t.event == "bandwidth-drop"]
    assert len(drops) == 1  # scarce state latched, not re-triggered


def test_bandwidth_recovery_trigger():
    world = make_world()
    deploy(world, "pbr")
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()
    world.network.set_link("alpha", "beta", bandwidth=500.0)
    world.run(until=world.now + 600.0)
    world.network.set_link("alpha", "beta", bandwidth=12_500.0)
    world.run(until=world.now + 600.0)
    ups = [t for t in monitoring.trigger_history if t.event == "bandwidth-increase"]
    assert len(ups) == 1


def test_error_observer_detects_transient_fault_pattern():
    world = make_world()
    pair = deploy(world, "pbr+tr")
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())
    world.faults.arm(Fault("value", "alpha", budget=4))

    def workload():
        for _ in range(4):
            yield from client.request(("add", 1))

    world.run_process(workload(), name="workload")
    aging = [t for t in monitoring.trigger_history if t.event == "hardware-aging"]
    assert len(aging) == 1
    assert aging[0].source == "observer"


# -- the closed loop -----------------------------------------------------------------------


def test_mandatory_transition_fires_automatically():
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, monitoring, _manager, _resilience = stack(world, pair)
    world.network.set_link("alpha", "beta", bandwidth=500.0)
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr"  # bandwidth drop -> mandatory PBR->LFR
    assert world.trace.count("adaptation", "transition_complete") == 1


def test_possible_transition_waits_for_manager():
    world = make_world()
    pair = deploy(world, "pbr")
    engine, monitoring, manager, resilience = stack(world, pair)
    # degrade and recover the link: LFR was mandatory, PBR back is possible
    world.network.set_link("alpha", "beta", bandwidth=500.0)
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr"
    world.network.set_link("alpha", "beta", bandwidth=12_500.0)
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr"  # NOT auto-reverted (oscillation protection)
    assert len(manager.pending) == 1
    assert manager.pending[0].target_ftm == "pbr"

    # the manager approves: now it runs
    def approve():
        report = yield from resilience.execute_pending(approve=True)
        return report

    world.run_process(approve(), name="approve")
    assert pair.ftm == "pbr"


def test_manager_rejection_keeps_current_ftm():
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, _monitoring, manager, resilience = stack(world, pair)
    world.network.set_link("alpha", "beta", bandwidth=500.0)
    world.run(until=world.now + 4_000.0)
    world.network.set_link("alpha", "beta", bandwidth=12_500.0)
    world.run(until=world.now + 4_000.0)

    def reject():
        report = yield from resilience.execute_pending(approve=False)
        return report

    report = world.run_process(reject(), name="reject")
    assert report is None
    assert pair.ftm == "lfr"


@pytest.mark.parametrize("ftm, label, event_name, target", [
    ("lfr+tr", "lfr+tr", "hardware-replaced", "lfr"),
    ("pbr", "pbr (non-determinism)", "application-determinism", "lfr"),
])
def test_event_enabled_option_is_proposed_and_runs_on_approval(
    ftm, label, event_name, target
):
    # the event enables an FTM while the running one still fits: the
    # System Manager is offered it (Figure 8's edge)
    world = make_world()
    pair = deploy(world, ftm)
    _engine, _monitoring, manager, resilience = stack(world, pair)
    (state,) = [s for s in scenario_states() if s.label == label]
    resilience.context = state.context
    resilience.notify_event(event_name)
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == ftm  # a possible move waits
    (proposal,) = manager.pending
    assert (proposal.source_ftm, proposal.target_ftm) == (ftm, target)
    assert proposal.before == state.context
    assert resilience.decisions[-1]["kind"] == "possible"

    def approve():
        return (yield from resilience.execute_pending(approve=True))

    report = world.run_process(approve(), name="approve")
    assert report.success and not proposal.stale
    assert pair.ftm == target
    assert world.trace.count("resilience", "proposal_stale") == 0


def test_fault_model_trigger_composes_tr():
    world = make_world()
    pair = deploy(world, "lfr")
    _engine, monitoring, _manager, resilience = stack(world, pair)
    resilience.context = _ctx(bandwidth_ok=False)  # how we got to LFR
    resilience.notify_event("hardware-aging")
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr+tr"  # proactive composition before faults bite


def test_manager_notify_application_change():
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, _monitoring, _manager, resilience = stack(world, pair)
    resilience.notify_event("state-access-loss")
    world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr"  # checkpointing impossible -> mandatory


# -- preprogrammed baseline -------------------------------------------------------------------


def deploy_preprogrammed(world, ftm="pbr"):
    nodes = [world.cluster.node("alpha"), world.cluster.node("beta")]
    pair = FTMPair(world, ftm, nodes)
    # swap the blueprint builder for the all-branches variant
    original = pair.spec_for

    def spec_for(index, ftm_name=None):
        replica = pair.replicas[index]
        peer = pair.replicas[1 - index].node.name
        role = "master" if index == 0 else "slave"
        return preprogrammed_assembly(
            ftm_name or pair.ftm, role=role, peer=peer, app=pair.app,
            assertion=pair.assertion, composite=pair.composite_name,
        )

    pair.spec_for = spec_for

    def do():
        yield from pair.deploy()
        return pair

    return world.run_process(do(), name="deploy-pre")


def test_preprogrammed_switch_is_fast_but_loaded():
    world = make_world()
    pair = deploy_preprogrammed(world, "pbr")
    adaptation = PreprogrammedAdaptation(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        r1 = yield from client.request(("add", 5))
        record = yield from adaptation.switch("lfr")
        r2 = yield from client.request(("add", 5))
        return r1, record, r2

    r1, record, r2 = world.run_process(scenario(), name="scenario")
    assert r1.value == 5 and r2.value == 10
    assert record["duration_ms"] < 100.0       # parametric switch: fast
    assert adaptation.resident_variant_count() == 8  # ...but dead code resident
    agile_spec = ftm_assembly("pbr", role="master", peer="beta")
    agile_bytes = sum(c.size for c in agile_spec.components)
    assert adaptation.resident_bytes() > agile_bytes * 1.4


def test_preprogrammed_cannot_integrate_unforeseen_ftm():
    world = make_world()
    pair = deploy_preprogrammed(world, "pbr")
    adaptation = PreprogrammedAdaptation(world, pair)
    from repro.ftm import UnknownFTM

    def do():
        yield from adaptation.switch("brand-new-ftm")

    with pytest.raises(UnknownFTM):
        world.run_process(do(), name="switch")


# -- stability -----------------------------------------------------------------------------------


def test_scenario_graph_has_no_oscillation_violations():
    assert verify_no_oscillation() == []


def test_oscillating_bandwidth_with_man_in_the_loop():
    for swings in (10, 25):
        events = ["bandwidth-drop", "bandwidth-increase"] * swings
        with_manager = replay_oscillation("pbr", _ctx(), events,
                                          man_in_the_loop=True)
        naive = replay_oscillation("pbr", _ctx(), events, man_in_the_loop=False)
        # the naive policy reconfigures on every swing; the paper's rule
        # executes only the first (mandatory) transition and then holds
        assert naive.transitions == len(events)
        assert with_manager.transitions == 1
        assert with_manager.trajectory[-1] == "lfr"


# -- decisions pinned from the tree before `decide` was extracted -------------------------------


def _flap(world, resilience, bandwidths, verdicts=()):
    """Set the link to each bandwidth in turn, then answer queued proposals."""
    for bandwidth in bandwidths:
        world.network.set_link("alpha", "beta", bandwidth=bandwidth)
        world.run(until=world.now + 4_000.0)

    def answer():
        reports = []
        for approve in verdicts:
            reports.append((yield from resilience.execute_pending(approve=approve)))
        return reports

    return world.run_process(answer(), name="answer")


_DROP = {"time": 3990.535565042731, "trigger": "bandwidth-drop",
         "current": "pbr", "target": "lfr", "kind": "mandatory",
         "executed": True, "outcome": "success"}
_BACK = {"time": 7990.535565042731, "trigger": "bandwidth-increase",
         "current": "lfr", "target": "pbr", "kind": "possible",
         "executed": False}


@pytest.mark.parametrize("bandwidths, verdicts, final_ftm, decisions, digest", [
    ((500.0,), (), "lfr", [_DROP], "400420f6af57fb63ad08b83cfc8859ee"),
    ((500.0, 12_500.0), (True,), "pbr", [_DROP, _BACK],
     "8a2118a1850c6a61db5d2e3a892325fc"),
    ((500.0, 12_500.0), (False,), "lfr", [_DROP, _BACK],
     "664841bc0029c94fe0fbc12366408f61"),
], ids=["mandatory", "possible-approved", "possible-rejected"])
def test_decisions_equal_the_recorded_ones(
    bandwidths, verdicts, final_ftm, decisions, digest
):
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, _monitoring, _manager, resilience = stack(world, pair)
    _flap(world, resilience, bandwidths, verdicts)
    assert pair.ftm == final_ftm
    assert resilience.decisions == decisions
    assert world.trace.digest() == digest


def test_no_generic_solution_decisions_equal_the_recorded_ones():
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, _monitoring, _manager, resilience = stack(world, pair)
    for event_name in ("state-access-loss", "application-non-determinism"):
        resilience.notify_event(event_name)
        world.run(until=world.now + 4_000.0)
    assert pair.ftm == "lfr"
    assert resilience.decisions == [
        {"time": 3740.535565042731, "trigger": "state-access-loss",
         "current": "pbr", "target": "lfr", "kind": "mandatory",
         "executed": True, "outcome": "success"},
        {"time": 7740.535565042731, "trigger": "application-non-determinism",
         "current": "lfr", "target": None, "kind": "no-generic-solution",
         "executed": False},
    ]
    assert world.trace.digest() == "ced009da55160fff3a1eda52b0aaef5f"


def test_stale_proposal_is_dropped_not_executed():
    # LFR->PBR is queued while bandwidth is back; it drops again before the
    # manager answers.  Executing the approval would park the pair on a
    # degraded PBR for good: the probe is already latched scarce, so no
    # trigger would ever move it out.
    world = make_world()
    pair = deploy(world, "pbr")
    _engine, _monitoring, manager, resilience = stack(world, pair)
    reports = _flap(world, resilience, (500.0, 12_500.0, 500.0), (True,))
    assert reports == [None]
    assert pair.ftm == "lfr"
    assert not evaluate_ftm(pair.ftm, resilience.context).degraded
    assert manager.pending == []
    (proposal,) = manager.decided
    assert proposal.approved and proposal.stale
    assert world.trace.count("resilience", "proposal_stale") == 1
    assert world.trace.count("adaptation", "transition_complete") == 1
