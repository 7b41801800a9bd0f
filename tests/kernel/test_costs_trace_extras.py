"""Extra kernel coverage: cost model, trace queries, network details."""

import pytest

from repro.kernel import CostModel, DEFAULT_COSTS, World


# -- cost model -------------------------------------------------------------


def test_cost_model_is_frozen():
    with pytest.raises(Exception):
        DEFAULT_COSTS.runtime_boot = 0  # type: ignore[misc]


def test_world_accepts_custom_costs():
    fast = CostModel(runtime_boot=475.0)
    world = World(seed=1, costs=fast)
    node = world.add_node("alpha")
    assert node.costs.runtime_boot == pytest.approx(475.0)


# -- network ------------------------------------------------------------------


def test_network_unbind_makes_deliveries_drop():
    world = World(seed=3)
    world.add_nodes(["alpha", "beta"])
    world.network.bind("beta", "in")
    world.network.unbind("beta", "in")
    world.network.send("alpha", "beta", "in", payload="x")
    world.run()
    assert world.network.messages_dropped == 1


def test_loopback_delivery():
    world = World(seed=4)
    world.add_node("alpha")
    mailbox = world.network.bind("alpha", "self")
    world.network.send("alpha", "alpha", "self", payload="me")
    world.run()
    received = []
    mailbox.set_sink(received.append)  # hands over what is buffered
    assert [message.payload for message in received] == ["me"]


def test_set_link_asymmetric():
    world = World(seed=5)
    world.add_nodes(["alpha", "beta"])
    world.network.set_link("alpha", "beta", bandwidth=1.0, symmetric=False)
    assert world.network.link("alpha", "beta").bandwidth == 1.0
    assert world.network.link("beta", "alpha").bandwidth != 1.0


# -- trace ------------------------------------------------------------------------


def test_trace_summary_histogram():
    world = World(seed=6)
    world.add_node("alpha").crash()
    world.cluster.node("alpha").restart()
    world.cluster.node("alpha").crash()
    summary = world.trace.summary()
    assert summary["node.crash"] == 2
    assert summary["node.restart"] == 1


def test_trace_since_filter():
    world = World(seed=8)
    node = world.add_node("alpha")
    node.crash()
    node.restart()
    world.sim.schedule(100.0, node.crash)
    world.run()
    late = world.trace.select("node", "crash", since=50.0)
    assert len(late) == 1


def test_energy_accounting_includes_idle_and_bytes():
    world = World(seed=9)
    world.add_nodes(["alpha", "beta"])
    world.network.bind("beta", "in")
    alpha = world.cluster.node("alpha")
    world.network.send("alpha", "beta", "in", payload="x", size=10_000)
    world.run()
    assert alpha.energy == pytest.approx(
        10_000 * world.costs.energy_per_byte_sent
    )
