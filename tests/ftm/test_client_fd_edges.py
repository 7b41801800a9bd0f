"""Edge-case tests: clients, failure detector, monitoring probes."""

import pytest

from repro.core import MonitoringEngine, Thresholds
from repro.ftm import Client, FTMError, deploy_ftm_pair
from repro.kernel import World


def make_world(seed=95):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def deploy(world, ftm="pbr", **kwargs):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"], **kwargs)
        return pair

    return world.run_process(do(), name="deploy")


# -- client edge cases ------------------------------------------------------------


def test_client_requires_targets():
    world = make_world()
    with pytest.raises(ValueError):
        Client(world, world.cluster.node("client"), "c1", [])


def test_client_gives_up_after_max_attempts():
    world = make_world()
    deploy(world)
    # both replicas die: nobody will ever answer
    world.cluster.node("alpha").crash()
    world.cluster.node("beta").crash()
    client = Client(
        world, world.cluster.node("client"), "c1", ["alpha", "beta"],
        timeout=100.0, max_attempts=3,
    )

    def do():
        yield from client.request(("add", 1))

    with pytest.raises(FTMError, match="no reply"):
        world.run_process(do(), name="doomed")
    assert client.retransmissions == 2  # attempts - 1


def test_client_counts_retransmissions_on_failover():
    world = make_world()
    pair = deploy(world)
    world.cluster.node("alpha").crash()
    client = Client(
        world, world.cluster.node("client"), "c1", pair.node_names(),
        timeout=300.0,
    )

    def do():
        reply = yield from client.request(("add", 1))
        return reply

    reply = world.run_process(do(), name="retry")
    assert reply.ok
    assert client.retransmissions >= 1
    assert reply.served_by == "beta"


def test_client_survives_a_transient_outage():
    world = make_world()
    pair = deploy(world)
    client = Client(
        world, world.cluster.node("client"), "c1", pair.node_names(),
        timeout=250.0, max_attempts=20,
    )
    # a transient total outage: every client link is cut, then restored
    network = world.network
    for server in ("alpha", "beta"):
        network.set_link_loss("client", server, 1.0)
        world.sim.schedule(900.0, network.set_link_loss, "client", server, 0.0)

    def do():
        reply = yield from client.request(("add", 1))
        return reply

    reply = world.run_process(do(), name="outage")
    assert reply.ok and reply.value == 1


def test_client_mailboxes_are_cleaned_up():
    world = make_world()
    pair = deploy(world)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def do():
        for _ in range(5):
            yield from client.request(("add", 1))

    world.run_process(do(), name="load")
    leftover = [
        port for (node, port) in world.network._mailboxes
        if node == "client" and port.startswith("reply-")
    ]
    assert leftover == []


# -- failure detector edge cases ----------------------------------------------------


def fd_of(pair, node_name):
    return (
        pair.replica_on(node_name)
        .composite.component("failureDetector")
        .implementation
    )


def test_fd_does_not_false_suspect_under_normal_operation():
    world = make_world()
    pair = deploy(world)
    world.run(until=world.now + 5_000.0)
    assert not fd_of(pair, "alpha").suspected
    assert not fd_of(pair, "beta").suspected


def test_fd_counts_heartbeats():
    world = make_world()
    pair = deploy(world)
    world.run(until=world.now + 500.0)
    detector = fd_of(pair, "alpha")
    assert detector.heartbeats_seen > 5
    assert detector.suspected is False


# -- monitoring probes -----------------------------------------------------------------


def test_cpu_probe_requires_sustained_saturation():
    world = make_world()
    pair = deploy(world)
    monitoring = MonitoringEngine(
        world, ["alpha", "beta"],
        thresholds=Thresholds(cpu_sustain_samples=4),
    )
    monitoring.start()

    # a busy-loop process saturating alpha for ~2 s
    def burn():
        node = world.cluster.node("alpha")
        for _ in range(80):
            yield node.compute_charge(25.0)

    world.cluster.node("alpha").spawn(burn(), name="burn")
    world.run(until=world.now + 3_000.0)
    drops = [t for t in monitoring.trigger_history if t.event == "cpu-drop"]
    assert len(drops) == 1
    # recovery trigger after the burn ends
    world.run(until=world.now + 2_000.0)
    ups = [t for t in monitoring.trigger_history if t.event == "cpu-increase"]
    assert len(ups) == 1


def test_short_burst_does_not_trigger_cpu_probe():
    world = make_world()
    pair = deploy(world)
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()

    def burst():
        node = world.cluster.node("alpha")
        for _ in range(20):
            yield node.compute_charge(25.0)  # ~500 ms of saturation

    world.cluster.node("alpha").spawn(burst(), name="burst")
    world.run(until=world.now + 3_000.0)
    assert not any(t.event == "cpu-drop" for t in monitoring.trigger_history)


def test_monitoring_samples_accumulate():
    world = make_world()
    deploy(world)
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()
    world.run(until=world.now + 1_050.0)
    assert len(monitoring.samples) == 10
    sample = monitoring.samples[-1]
    assert set(sample["nodes"]) == {"alpha", "beta"}
    assert sample["bandwidth"] is not None


def test_monitoring_stop_halts_sampling():
    world = make_world()
    deploy(world)
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()
    world.run(until=world.now + 500.0)
    monitoring.stop()
    count = len(monitoring.samples)
    world.run(until=world.now + 500.0)
    assert len(monitoring.samples) == count
