"""Unit tests for nodes, network, fault injection and stable storage."""

import pytest

from repro.kernel import (
    Corrupted,
    Fault,
    NodeDown,
    NodeState,
    ProcessKilled,
    Timeout,
    World,
    bit_flip,
)


@pytest.fixture
def world():
    return World(seed=1)


@pytest.fixture
def pair(world):
    return world.add_node("alpha"), world.add_node("beta")


# -- nodes ---------------------------------------------------------------------


def test_node_compute_advances_time_and_charges_energy(world):
    node = world.add_node("alpha")

    def proc():
        yield node.compute_charge(10.0, jitter=False)

    world.run_process(proc())
    assert world.now == pytest.approx(10.0)
    assert node.busy_ms == pytest.approx(10.0)
    assert node.energy == pytest.approx(10.0 * world.costs.energy_per_ms_busy)


def test_faster_cpu_computes_quicker(world):
    fast = world.add_node("fast", cpu_speed=2.0)

    def proc():
        yield fast.compute_charge(10.0, jitter=False)

    world.run_process(proc())
    assert world.now == pytest.approx(5.0)


def test_node_rejects_nonpositive_speed(world):
    with pytest.raises(ValueError):
        world.add_node("bad", cpu_speed=0.0)


def test_duplicate_node_name_rejected(world):
    world.add_node("alpha")
    with pytest.raises(ValueError):
        world.add_node("alpha")


def test_crash_kills_node_processes(world):
    node = world.add_node("alpha")
    reached = []

    def proc():
        yield Timeout(100.0)
        reached.append("done")

    process = node.spawn(proc())
    world.faults.arm(Fault("crash", "alpha", start=5.0))
    world.run()
    assert reached == []
    assert isinstance(process.exception, ProcessKilled)
    assert node.state == NodeState.CRASHED


def test_crashed_node_refuses_work(world):
    node = world.add_node("alpha")
    node.crash()
    with pytest.raises(NodeDown):
        node.spawn((x for x in []))
    with pytest.raises(NodeDown):
        node.compute_charge(1.0)


def test_restart_brings_node_up_with_hooks(world):
    node = world.add_node("alpha")
    seen = []
    node.on_crash(lambda n: seen.append(("crash", n.name)))
    node.on_restart(lambda n: seen.append(("restart", n.name)))
    node.crash()
    node.restart()
    assert seen == [("crash", "alpha"), ("restart", "alpha")]
    assert node.is_up
    assert node.crash_count == 1


def test_crash_is_idempotent(world):
    node = world.add_node("alpha")
    node.crash()
    node.crash()
    assert node.crash_count == 1


# -- network -------------------------------------------------------------------


def test_message_delivery(world, pair):
    alpha, beta = pair
    mailbox = world.network.bind("beta", "in")

    def receiver():
        message = yield mailbox.get()
        return (message.payload, message.source)

    process = world.sim.spawn(receiver())
    world.network.send("alpha", "beta", "in", payload="hello", size=100)
    world.run()
    assert process.result == ("hello", "alpha")


def test_transfer_time_scales_with_size(world, pair):
    # Deliveries carry jitter; large messages must still take visibly longer.
    mailbox = world.network.bind("beta", "in")
    arrivals = []

    def receiver():
        for _ in range(2):
            yield mailbox.get()
            arrivals.append(world.now)

    world.sim.spawn(receiver())
    world.network.send("alpha", "beta", "in", payload="small", size=10)
    world.network.send("alpha", "beta", "in", payload="big", size=1_000_000)
    world.run()
    small_time, big_time = arrivals[0], arrivals[1]
    assert big_time > small_time * 10


def test_send_from_crashed_node_raises(world, pair):
    alpha, _beta = pair
    alpha.crash()
    with pytest.raises(NodeDown):
        world.network.send("alpha", "beta", "in", payload="x")


def test_delivery_to_crashed_node_dropped(world, pair):
    _alpha, beta = pair
    world.network.bind("beta", "in")
    world.network.send("alpha", "beta", "in", payload="x")
    beta.crash()
    world.run()
    assert world.network.messages_dropped == 1
    assert world.network.messages_delivered == 0


def test_partition_blocks_messages_and_heal_restores(world, pair):
    mailbox = world.network.bind("beta", "in")
    world.network.partition(["alpha"], ["beta"])
    world.network.send("alpha", "beta", "in", payload="lost")
    world.run()
    assert len(mailbox) == 0
    world.network.heal()
    world.network.send("alpha", "beta", "in", payload="found")
    world.run()
    assert len(mailbox) == 1


def test_loss_probability_drops_messages(world, pair):
    world.network.bind("beta", "in")
    world.network.set_loss_probability(1.0)
    for _ in range(5):
        world.network.send("alpha", "beta", "in", payload="x")
    world.run()
    assert world.network.messages_dropped == 5


def test_unknown_destination_rejected(world):
    world.add_node("alpha")
    with pytest.raises(KeyError):
        world.network.send("alpha", "ghost", "in", payload="x")


def test_bandwidth_change_at_runtime(world, pair):
    world.network.set_link("alpha", "beta", bandwidth=1.0)
    link = world.network.link("alpha", "beta")
    assert link.bandwidth == 1.0
    # symmetric by default
    assert world.network.link("beta", "alpha").bandwidth == 1.0


def test_byte_accounting(world, pair):
    alpha, beta = pair
    world.network.bind("beta", "in")
    world.network.send("alpha", "beta", "in", payload="x", size=500)
    world.run()
    assert alpha.bytes_sent == 500
    assert beta.bytes_received == 500


# -- fault injection -------------------------------------------------------------


def test_bit_flip_int_changes_value():
    assert bit_flip(42, 3) != 42


def test_bit_flip_is_detectable_not_destructive():
    for value in [0, 1.5, -2.25, "hello", b"bytes", True, [1, 2], (3, 4)]:
        assert bit_flip(value, 5) != value


def test_bit_flip_unknown_type_wrapped():
    marker = bit_flip({"a": 1}, 2)
    assert isinstance(marker, Corrupted)


def test_transient_campaign_corrupts_within_window(world):
    world.add_node("alpha")
    world.faults.arm(Fault("value", "alpha", start=0.0, end=100.0))
    assert world.faults.filter_value("alpha", 7) != 7
    injected = world.trace.select("fault", "value_injected")
    assert [r.detail("kind") for r in injected] == ["transient_value"]


def test_transient_campaign_respects_budget(world):
    world.add_node("alpha")
    world.faults.arm(Fault("value", "alpha"))
    assert world.faults.filter_value("alpha", 7) != 7
    assert world.faults.filter_value("alpha", 7) == 7


def test_campaign_does_not_hit_other_nodes(world):
    world.add_node("alpha")
    world.add_node("beta")
    world.faults.arm(Fault("value", "alpha", budget=None))
    assert world.faults.filter_value("beta", 7) == 7


def test_permanent_campaign_corrupts_forever(world):
    world.add_node("alpha")
    world.faults.arm(Fault("value", "alpha", start=0.0, budget=None))
    corrupted = [world.faults.filter_value("alpha", 10) for _ in range(5)]
    assert all(value != 10 for value in corrupted)
    injected = world.trace.select("fault", "value_injected")
    assert {r.detail("kind") for r in injected} == {"permanent_value"}


# -- stable storage ----------------------------------------------------------------


def test_storage_read_write(world):
    world.storage.write("alpha", "config", {"ftm": "pbr"})
    assert world.storage.read("alpha", "config") == {"ftm": "pbr"}
    assert world.storage.read("alpha", "missing", default="d") == "d"


def test_storage_survives_crash(world):
    node = world.add_node("alpha")
    world.storage.write("alpha", "config", "pbr")
    node.crash()
    assert world.storage.read("alpha", "config") == "pbr"


def test_storage_delete_unknown_key(world):
    from repro.kernel import StorageError

    with pytest.raises(StorageError):
        world.storage.delete("alpha", "nope")


def test_storage_log_append_and_last(world):
    world.storage.append("configs", "pbr")
    world.storage.append("configs", "lfr")
    entries = world.storage.log("configs")
    assert [e.value for e in entries] == ["pbr", "lfr"]
    assert world.storage.last("configs").value == "lfr"
    assert world.storage.last("empty") is None


# -- trace ---------------------------------------------------------------------------


def test_trace_records_and_queries(world):
    node = world.add_node("alpha")
    node.crash()
    node.restart()
    assert world.trace.count("node", "crash") == 1
    last = world.trace.last("node")
    assert last.event == "restart"
    assert last.detail("node") == "alpha"


def test_trace_select_by_detail(world):
    world.add_node("alpha").crash()
    world.add_node("beta").crash()
    only_beta = world.trace.select("node", "crash", node="beta")
    assert len(only_beta) == 1


def test_trace_subscribe_live(world):
    seen = []
    world.trace.subscribe(lambda rec: seen.append(rec.event))
    world.add_node("alpha").crash()
    assert "crash" in seen


def test_world_determinism():
    def run(seed):
        world = World(seed=seed)
        world.add_node("alpha")
        world.add_node("beta")
        mailbox = world.network.bind("beta", "in")
        times = []

        def receiver():
            for _ in range(20):
                yield mailbox.get()
                times.append(world.now)

        world.sim.spawn(receiver())
        for index in range(20):
            world.network.send("alpha", "beta", "in", payload=index, size=1000)
        world.run()
        return times

    assert run(3) == run(3)
