"""Tests for the constant workload and the client's record of it."""

import pytest

from repro.app.workloads import constant
from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import World


@pytest.fixture
def setup():
    world = World(seed=70)
    world.add_nodes(["alpha", "beta", "client"])

    def do():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        return pair

    pair = world.run_process(do(), name="deploy")
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())
    return world, pair, client


def test_constant_workload(setup):
    world, _pair, client = setup
    assert world.run_process(constant(client, count=10, period_ms=25.0)) is None
    assert client.sent == client.ok == 10
    assert client.errors == client.replayed == 0
    assert client.all_ok
    assert client.replies[-1].value == 10
    assert len(client.latencies_ms) == 10
    assert min(client.latencies_ms) > 0


def test_client_records_each_answer_in_answer_order(setup):
    world, _pair, client = setup
    starts = []

    def mixed():
        yield from constant(client, count=2, period_ms=10.0)
        starts.append(world.now)
        yield from client.request(("add", 5))
        starts.append(world.now)
        for _ in range(2):  # back to back
            yield from client.request(("add", 1))

    world.run_process(mixed())
    assert [r.request_id for r in client.replies] == [1, 2, 3, 4, 5]
    assert [r.value for r in client.replies] == [1, 2, 7, 8, 9]
    assert len(client.latencies_ms) == client.sent == 5
    # a latency runs from its request's start to its reply
    assert starts[1] - starts[0] == client.latencies_ms[2]


def test_fresh_client_record_is_empty(setup):
    _world, _pair, client = setup
    assert client.replies == [] and client.latencies_ms == []
    assert client.sent == client.ok == client.errors == client.replayed == 0
    assert not client.all_ok
