"""FTM pairs: deployment, request serving, at-most-once, all six FTMs."""

import pytest

from repro.ftm import FTM_NAMES, Client, deploy_ftm_pair, ftm_assembly
from repro.ftm import variable_feature_distance
from repro.kernel import World


def make_world(seed=10):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def deploy(world, ftm, **kwargs):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"], **kwargs)
        return pair

    return world.run_process(do(), name="deploy")


def run_requests(world, pair, payloads, client_name="c1", **client_kwargs):
    client = Client(
        world, world.cluster.node("client"), client_name, pair.node_names(),
        **client_kwargs,
    )

    def workload():
        for payload in payloads:
            yield from client.request(payload)

    world.run_process(workload(), name="workload")
    return client, client.replies


# -- deployment ----------------------------------------------------------------


def test_deploy_pbr_pair_roles():
    world = make_world()
    pair = deploy(world, "pbr")
    assert pair.master.node.name == "alpha"
    assert pair.slave.node.name == "beta"
    assert pair.logged_configuration()["ftm"] == "pbr"


def test_parallel_deploy_time_matches_single_replica():
    world = make_world()
    deploy(world, "pbr")
    # both replicas deploy concurrently: wall-clock ~ one replica (~3.8 s)
    assert 3300 <= world.now <= 4300


@pytest.mark.parametrize("ftm", FTM_NAMES)
def test_all_ftms_deploy_and_serve(ftm):
    world = make_world()
    pair = deploy(world, ftm, assertion="counter-range")
    _client, replies = run_requests(world, pair, [("add", 2), ("add", 3), ("get",)])
    assert [r.value for r in replies] == [2, 5, 5]
    assert all(r.ok for r in replies)


def test_assembly_validates():
    for ftm in FTM_NAMES:
        spec = ftm_assembly(ftm, role="master", peer="beta")
        assert spec.validate() == []


def test_variable_feature_distance_matrix():
    assert variable_feature_distance("pbr", "pbr") == 0
    assert variable_feature_distance("lfr", "lfr+tr") == 1
    assert variable_feature_distance("pbr", "lfr") == 2
    assert variable_feature_distance("pbr", "lfr+tr") == 3
    assert variable_feature_distance("pbr", "a+pbr") == 1
    assert variable_feature_distance("a+pbr", "a+lfr") == 2
    # symmetry
    for a in FTM_NAMES:
        for b in FTM_NAMES:
            assert variable_feature_distance(a, b) == variable_feature_distance(b, a)


def test_unknown_ftm_rejected():
    from repro.ftm import UnknownFTM, check_ftm_name

    with pytest.raises(UnknownFTM):
        check_ftm_name("quadruplex")


# -- replication behaviour -----------------------------------------------------------


def settle(world, ms=50.0):
    """Let in-flight messages (e.g. the last checkpoint) drain."""
    world.run(until=world.now + ms)


def test_pbr_backup_receives_checkpoints():
    world = make_world()
    pair = deploy(world, "pbr")
    run_requests(world, pair, [("add", 10), ("add", 5)])
    settle(world)
    assert world.trace.count("ftm", "checkpoint_sent") == 2
    assert world.trace.count("ftm", "checkpoint_applied") == 2
    backup_server = pair.slave.composite.component("server").implementation
    assert backup_server.application.total == 15


def test_lfr_follower_computes_every_request():
    world = make_world()
    pair = deploy(world, "lfr")
    run_requests(world, pair, [("add", 10), ("add", 5)])
    settle(world)
    follower_server = pair.slave.composite.component("server").implementation
    assert follower_server.application.total == 15
    assert follower_server.application.processed == 2  # active replication


def test_pbr_uses_more_bandwidth_than_lfr():
    def bytes_for(ftm):
        world = make_world()
        pair = deploy(world, ftm)
        run_requests(world, pair, [("add", i) for i in range(10)])
        settle(world)
        return world.cluster.node("alpha").bytes_sent

    assert bytes_for("pbr") > bytes_for("lfr") * 1.5


def test_lfr_burns_more_cpu_than_pbr():
    def backup_busy(ftm):
        world = make_world()
        pair = deploy(world, ftm)
        run_requests(world, pair, [("add", i) for i in range(10)])
        settle(world)
        return world.cluster.node("beta").busy_ms

    assert backup_busy("lfr") > backup_busy("pbr") + 30


def test_at_most_once_across_retransmission():
    world = make_world()
    pair = deploy(world, "pbr")
    client, replies = run_requests(world, pair, [("add", 5)])

    # replay the same request id manually: must be served from the log
    from repro.ftm.messages import ClientRequest

    def replay():
        mailbox = world.network.bind("client", "probe")
        world.network.send(
            "client",
            "alpha",
            "requests",
            ClientRequest(1, "c1", ("add", 5), "client", "probe"),
            size=128,
        )
        message = yield mailbox.get()
        return message.payload

    reply = world.run_process(replay(), name="replay")
    assert reply.replayed
    assert reply.value == 5
    master_server = pair.master.composite.component("server").implementation
    assert master_server.application.total == 5  # not recomputed


def test_slave_answers_not_master():
    world = make_world()
    pair = deploy(world, "pbr")
    # address the slave directly: client must fail over to the master
    client = Client(
        world, world.cluster.node("client"), "c2", ["beta", "alpha"]
    )

    def do():
        reply = yield from client.request(("add", 4))
        return reply

    reply = world.run_process(do(), name="misdirected")
    assert reply.ok
    assert reply.value == 4
    assert reply.served_by == "alpha"
