"""End-to-end integration tests combining every layer of the system."""


from repro.app.workloads import bursty, constant
from repro.core import (
    AdaptationEngine,
    MonitoringEngine,
    ResilienceManager,
    SystemManager,
)
from repro.core.transition_graph import _ctx
from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import Fault, Timeout, World


def build(seed=80, ftm="pbr", assertion="always-true"):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])

    def do():
        pair = yield from deploy_ftm_pair(
            world, ftm, ["alpha", "beta"], assertion=assertion
        )
        return pair

    pair = world.run_process(do(), name="deploy")
    client = Client(
        world, world.cluster.node("client"), "c1", pair.node_names(),
        timeout=5_000.0, max_attempts=10,
    )
    return world, pair, client


def test_transition_under_steady_load_loses_nothing():
    world, pair, client = build()
    engine = AdaptationEngine(world, pair)
    loader = world.sim.spawn(constant(client, count=30, period_ms=40.0))

    def adapt():
        yield Timeout(300.0)
        yield from engine.transition("lfr")
        yield Timeout(200.0)
        yield from engine.transition("lfr+tr")
        yield loader

    world.run_process(adapt(), name="adapt")
    assert client.all_ok
    assert client.replies[-1].value == 30  # exactly-once effects throughout
    assert pair.ftm == "lfr+tr"


def test_crash_during_transition_under_load():
    """The hardest combined case: crash + transition + traffic at once."""
    world, pair, client = build(seed=81)
    pair.enable_recovery(restart_delay=400.0)
    engine = AdaptationEngine(world, pair)
    loader = world.sim.spawn(constant(client, count=25, period_ms=80.0))

    def chaos():
        yield Timeout(200.0)
        # the slave's reconfiguration script is tampered: it will be killed
        # mid-transition, the survivor completes, recovery reintegrates
        world.faults.arm(Fault("corrupt", "beta", phase="script"))
        yield from engine.transition("lfr")
        yield loader
        yield Timeout(8_000.0)  # reintegration window

    world.run_process(chaos(), name="chaos")
    assert client.all_ok
    assert client.replies[-1].value == 25
    assert pair.ftm == "lfr"
    beta = pair.replica_on("beta")
    assert beta.alive and beta.role() == "slave"


def test_value_faults_masked_across_a_transition():
    world, pair, client = build(seed=82, ftm="pbr+tr", assertion="counter-range")
    engine = AdaptationEngine(world, pair)
    # one guaranteed transient fault before the transition...
    world.faults.arm(Fault("value", "alpha"))
    loader = world.sim.spawn(constant(client, count=20, period_ms=60.0))

    def adapt():
        yield Timeout(400.0)
        yield from engine.transition("lfr+tr")
        # ... and one after it (TR must keep masking under the new FTM)
        world.faults.arm(Fault("value", "alpha"))
        yield loader

    world.run_process(adapt(), name="adapt")
    assert client.all_ok
    assert client.replies[-1].value == 20  # every fault masked, before & after
    assert world.trace.count("ftm", "tr_masked") >= 2


def test_closed_loop_mission_with_multiple_triggers():
    """Monitoring -> triggers -> resilience -> transitions, end to end."""
    world, pair, client = build(seed=83)
    engine = AdaptationEngine(world, pair)
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    manager = SystemManager(auto_approve=True)
    resilience = ResilienceManager(
        world, engine, monitoring, _ctx(), system_manager=manager
    )
    monitoring.start()
    resilience.start()

    def mission():
        yield from constant(client, count=5, period_ms=30.0)
        # R: the link degrades -> mandatory PBR -> LFR
        world.network.set_link("alpha", "beta", bandwidth=500.0)
        yield Timeout(4_000.0)
        assert pair.ftm == "lfr"
        # FT: aging hardware -> proactive LFR -> LFR+TR
        resilience.notify_event("hardware-aging")
        yield Timeout(3_000.0)
        assert pair.ftm == "lfr+tr"
        # traffic still flows, exactly-once preserved
        yield from constant(client, count=5, period_ms=30.0)

    world.run_process(mission(), name="mission")
    assert client.sent == 10
    assert client.all_ok
    assert client.replies[-1].value == 10
    executed = [d for d in resilience.decisions if d["executed"]]
    assert len(executed) == 2


def test_bursty_load_buffered_by_gate():
    world, pair, client = build(seed=84)
    engine = AdaptationEngine(world, pair)
    loader = world.sim.spawn(bursty(client, bursts=6, burst_size=4, gap_ms=250.0))

    def adapt():
        yield Timeout(500.0)
        yield from engine.transition("a+pbr")
        yield loader

    world.run_process(adapt(), name="adapt")
    assert client.all_ok
    assert client.replies[-1].value == 24


def test_double_transition_round_trip_restores_architecture():
    world, pair, client = build(seed=85)
    engine = AdaptationEngine(world, pair)
    before = {
        replica.node.name: replica.composite.architecture()
        for replica in pair.replicas
    }

    def round_trip():
        yield from engine.transition("lfr+tr")
        yield from engine.transition("pbr")

    world.run_process(round_trip(), name="round-trip")
    after = {
        replica.node.name: replica.composite.architecture()
        for replica in pair.replicas
    }
    assert before == after  # architecturally back to the initial FTM

    reply = world.run_process(client.request(("add", 9)), name="check")
    assert reply.ok and reply.value == 9
