"""The virtual beat clock replays beats bit for bit.

Two oracles.  The golden file pins the bytes of the tree before the
clock (it had two kernel events per beat) for whole missions.  The
reference detector (``beat_reference``) spells the beat path in plain
kernel events on *this* tree, so any scenario can be run both ways:
crash, restart and redeploy, omission loss, partition and heal, limp,
delivery filters, a detector stopped with beats buffered, a ``peer``
changed mid-run, and exact ``(time, seq)`` ties with other traffic.
"""

import json

import pytest

from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import BeatMonitor, BeatStream, Timeout, World
from repro.kernel.errors import NodeDown

from tests.golden import beat_parity
from tests.kernel.beat_reference import run_bare, run_both_ways

# -- the parent tree's bytes -------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(beat_parity.SCENARIOS))
def test_missions_reproduce_the_golden_fingerprints(scenario):
    golden = json.loads(beat_parity.GOLDEN_PATH.read_text())[scenario]
    assert len(golden) >= 8
    for seed, expected in enumerate(golden):
        assert beat_parity.fingerprint(scenario, seed) == expected, seed


# -- deployed pairs, clock vs reference ------------------------------------------------


def _deploy(world, ftm="pbr"):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"])
        return pair

    return world.run_process(do(), name="deploy")


def _fd(pair, name):
    replica = pair.replicas[pair.node_names().index(name)]
    return replica.composite.component("failureDetector").implementation


def _at(world, delay, fn, *args):
    world.sim.schedule(delay, fn, *args)


def _assert_parity(scenario, seed=7):
    clock, reference = run_both_ways(scenario, seed=seed)
    assert clock == reference
    return clock


def test_idle_pair_is_identical_and_costs_no_event_per_beat():
    def scenario(world):
        _deploy(world)
        world.run(until=world.now + 2_000.0)
        world.beats = world.sim.beats_replayed, world.sim.events_by_source

    found = _assert_parity(scenario)
    assert all(seen > 90 for _node, seen in found["heartbeats_seen"])

    world = World(seed=7)
    world.add_nodes(["alpha", "beta", "client"])
    scenario(world)
    replayed, sources = world.beats
    # two ticks and two deliveries per 20 ms, one alarm per quiet window
    assert replayed > 380
    assert sources["heartbeat"] < replayed / 10


def test_crash_restart_and_redeploy():
    def scenario(world):
        pair = _deploy(world)
        pair.enable_recovery(restart_delay=300.0)
        client = Client(world, world.cluster.node("client"), "c1",
                        pair.node_names(), timeout=2_000.0)
        _at(world, 500.0, world.cluster.node("alpha").crash)

        def load():
            for _ in range(12):
                yield from client.request(("add", 1))
                yield Timeout(150.0)

        world.run_process(load(), name="load")
        world.run(until=world.now + 3_000.0)
        assert pair.reintegrations == 1
        # beta kept beating at the crashed alpha until it was back
        reasons = [r.detail("reason")
                   for r in world.trace.select("network", "drop")]
        assert reasons.count("destination_down") >= 10

    found = _assert_parity(scenario)
    # the redeployed detector is a third one, and it heard beats too
    assert len(found["heartbeats_seen"]) == 3
    assert all(seen > 0 for _node, seen in found["heartbeats_seen"])


def test_omission_loss_draws_and_drops_the_same_beats():
    def scenario(world):
        _deploy(world)
        _at(world, 300.0, world.network.set_loss_probability, 0.3)
        _at(world, 900.0, world.network.set_loss_probability, 0.0)
        _at(world, 1_200.0, world.network.set_link_loss, "alpha", "beta", 0.5)
        world.run(until=world.now + 2_000.0)
        reasons = [r.detail("reason")
                   for r in world.trace.select("network", "drop")]
        assert reasons.count("loss") >= 10

    _assert_parity(scenario)


def test_partition_and_heal():
    def scenario(world):
        _deploy(world)
        _at(world, 400.0, world.network.partition, ["alpha"], ["beta"])
        _at(world, 700.0, world.network.heal)
        world.run(until=world.now + 2_000.0)
        assert world.trace.count("ftm", "peer_suspected") >= 1

    _assert_parity(scenario)


@pytest.mark.parametrize("resource", ["link", "cpu", "disk"])
def test_limping_node_stretches_beats_identically(resource):
    def scenario(world):
        _deploy(world)
        beta = world.cluster.node("beta")
        _at(world, 300.0, world.faults.apply_slow, beta, resource, 8.0)
        world.run(until=world.now + 1_500.0)

    _assert_parity(scenario)


def test_stopped_detector_buffers_beats_and_drains_them_on_start():
    def scenario(world):
        pair = _deploy(world)
        runtime = pair.replicas[1].runtime
        fd = _fd(pair, "beta")

        def cycle():
            yield Timeout(300.0)
            yield from runtime.stop_component("ftm", "failureDetector")
            before = fd.heartbeats_seen
            yield Timeout(400.0)
            assert fd.heartbeats_seen == before  # buffered, not consumed
            assert len(world.network.bind("beta", "fd")) >= 15
            yield from runtime.start_component("ftm", "failureDetector")
            assert fd.heartbeats_seen >= before + 15  # drained on install
            yield Timeout(500.0)

        world.run_process(cycle(), name="cycle")

    _assert_parity(scenario)


def test_peer_property_is_read_on_every_beat():
    def scenario(world):
        pair = _deploy(world)
        runtime = pair.replicas[0].runtime

        def retarget():
            yield Timeout(300.0)
            # nobody listens on client:fd - every beat is a no_mailbox drop
            yield from runtime.set_property(
                "ftm", "failureDetector", "peer", "client")
            yield Timeout(300.0)
            yield from runtime.set_property(
                "ftm", "failureDetector", "peer", "")  # silence
            yield Timeout(100.0)
            yield from runtime.set_property(
                "ftm", "failureDetector", "peer", "beta")
            yield Timeout(500.0)

        world.run_process(retarget(), name="retarget")
        reasons = [r.detail("reason")
                   for r in world.trace.select("network", "drop")]
        assert reasons.count("no_mailbox") >= 10

    _assert_parity(scenario)


@pytest.mark.parametrize("seed", range(4))
def test_parity_under_load_across_seeds(seed):
    def scenario(world):
        pair = _deploy(world, "lfr")
        pair.enable_recovery(restart_delay=300.0)
        client = Client(world, world.cluster.node("client"), "c1",
                        pair.node_names(), timeout=2_000.0)
        _at(world, 700.0 + 100.0 * seed, world.cluster.node("beta").crash)
        _at(world, 400.0, world.network.set_loss_probability, 0.1)

        def load():
            for _ in range(15):
                yield from client.request(("add", 1))
                yield Timeout(90.0)

        world.run_process(load(), name="load")
        world.run(until=world.now + 2_000.0)

    _assert_parity(scenario, seed=seed)


# -- bare streams: ties, errors, attribution ---------------------------------------------


def test_exact_ties_with_a_timer_that_sends_keep_the_draw_order():
    # streams start at 0.0 with period 20.0: ticks at exactly 20.0, 40.0, ...
    def script(world):
        def ping(label):
            # a jitter draw from the stream the beats draw from
            world.network.send("alpha", "beta", "app", label, 64)
            world.log.append((label, world.now, world.sim._seq))

        # scheduled before the tick at 40.0 took its seq: runs before it
        world.sim.schedule(40.0, ping, "older-than-the-tick")
        # scheduled at 45.0, after the tick at 60.0 took its seq (at
        # 40.0): same instant, runs after it
        world.sim.schedule(45.0, lambda: world.sim.schedule(
            15.0, ping, "younger-than-the-tick"))
        # a zero-delay chain started on a tick instant
        world.sim.schedule(80.0, lambda: world.sim.post(ping, "zero-delay"))
        world.network.bind("beta", "app")

    clock = run_bare(True, script)
    assert [when for _label, when, _seq in clock["log"]] == [40.0, 60.0, 80.0]
    assert clock == run_bare(False, script)


def test_silence_expires_the_watchdog_at_last_arrival_plus_timeout():
    def script(world):
        world.sim.schedule(100.0, world.cluster.node("alpha").crash)

    clock = run_bare(True, script)
    (who, when, seen), = [e for e in clock["expiries"] if e[0] == "beta"][:1]
    assert seen >= 5 and 140.0 < when < 165.0
    assert clock == run_bare(False, script)


def test_beat_stream_rejects_bad_endpoints_and_periods():
    world = World(seed=1)
    world.add_nodes(["alpha", "beta"])
    with pytest.raises(KeyError):
        BeatStream(world.network, "nope", lambda: "beta", "fd", "hb", 32, 20.0)
    with pytest.raises(ValueError):
        BeatStream(world.network, "alpha", lambda: "beta", "fd", "hb", 32, 0.0)


def test_crashed_source_raises_node_down():
    world = World(seed=1)
    world.add_nodes(["alpha", "beta"])
    world.cluster.node("alpha").crash()
    with pytest.raises(NodeDown):
        BeatStream(world.network, "alpha", lambda: "beta", "fd", "hb", 32, 20.0)


def test_unknown_peer_raises_from_the_beat_and_stops_the_stream():
    world = World(seed=1)
    world.add_nodes(["alpha", "beta"])
    stream = BeatStream(
        world.network, "alpha", lambda: "nope", "fd", "hb", 32, 20.0)
    with pytest.raises(KeyError):
        world.run(until=100.0)
    assert stream.alive  # like a ticker whose callback raised: never re-armed
    world.run(until=200.0)
    assert world.network.messages_sent == 0


def test_streams_die_with_their_node_and_with_a_world_close():
    world = World(seed=1)
    world.add_nodes(["alpha", "beta"])
    world.network.bind("beta", "fd").set_sink(BeatMonitor(world.sim, 60.0))
    stream = BeatStream(
        world.network, "alpha", lambda: "beta", "fd", "hb", 32, 20.0)
    assert world.sim.peek_time() == 0.0 and world.sim.pending() == 1
    world.run(until=100.0)
    assert world.network.messages_sent == 6
    world.cluster.node("alpha").crash()
    assert not stream.alive
    world.run(until=200.0)
    assert world.network.messages_sent == 6
    # a stream on a node that stays up ends with the world instead
    BeatStream(world.network, "beta", lambda: "alpha", "fd", "hb", 32, 20.0)
    world.run(until=300.0)
    assert world.network.messages_sent == 12
    assert world.sim.pending() > 0
    world.close()
    assert world.sim.peek_time() is None and world.sim.pending() == 0
    world.run(until=400.0)
    assert world.network.messages_sent == 12


def test_counters_split_replayed_beats_from_kernel_events():
    world = World(seed=3)
    world.add_nodes(["alpha", "beta"])
    world.network.bind("beta", "fd").set_sink(BeatMonitor(world.sim, 60.0))
    BeatStream(world.network, "alpha", lambda: "beta", "fd", "hb", 32, 20.0)
    world.run(until=1_010.0)
    sim = world.sim
    assert sim.beats_replayed == 2 * world.network.messages_sent == 102
    assert sim.beats_materialised == 0
    # one alarm fired and replayed everything, one is armed past the horizon
    assert sim.events_by_source["heartbeat"] == 2
    # a plain sink is off the quiet path: Network.send carries the beat
    world.network.bind("beta", "fd").set_sink(lambda message: None)
    world.run(until=2_010.0)
    assert sim.beats_materialised == 50
    assert sim.events_by_source["request"] == 0
