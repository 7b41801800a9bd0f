"""Property: the beat clock and the plain-event reference detector leave
identical bytes behind, whatever timed fault schedule hits them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import Fault
from tests.kernel.beat_reference import run_bare, run_both_ways

NODES = st.sampled_from(["alpha", "beta"])

#: One fault: (kind, node, magnitude index).
FAULTS = st.tuples(
    st.sampled_from([
        "crash", "loss", "link_loss", "limp",
        "latency", "requests",
    ]),
    NODES,
    st.integers(min_value=0, max_value=3),
)


def _apply(world, kind, node, level, client=None):
    network = world.network
    if kind == "crash":
        world.cluster.node(node).crash()
    elif kind == "restart":
        target = world.cluster.node(node)
        if not target.is_up:
            target.restart()
            world.start_detector(node, "beta" if node == "alpha" else "alpha")
    elif kind == "loss":
        network.set_loss_probability((0.0, 0.2, 0.6, 1.0)[level])
    elif kind == "link_loss":
        network.set_link_loss("alpha", "beta", (0.0, 0.3, 0.7, 1.0)[level])
    elif kind == "limp":
        world.faults.arm(Fault(
            "slow", node, resource=("link", "cpu", "disk", "link")[level],
            factor=(2.0, 8.0)[level % 2],
        ))
    elif kind == "latency":
        # 30 ms and more outlast the 20 ms period: beats overtake in flight
        network.set_link("alpha", "beta",
                         latency=(0.2, 5.0, 30.0, 45.0)[level])
    elif kind == "ping" and world.cluster.node(node).is_up:
        network.send(node, "beta" if node == "alpha" else "alpha", "app",
                     level, 64)
        world.log.append((world.now, world.sim._seq))
    elif kind == "requests" and client is not None:
        def burst():
            for _ in range(level + 1):
                yield from client.request(("add", 1))

        world.sim.spawn(burst(), name="burst")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    schedule=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1_500.0), FAULTS),
        max_size=8,
    ),
)
def test_deployed_pair_survives_any_fault_schedule_identically(seed, schedule):
    def scenario(world):
        def do():
            pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
            return pair

        pair = world.run_process(do(), name="deploy")
        pair.enable_recovery(restart_delay=300.0)
        client = Client(world, world.cluster.node("client"), "c1",
                        pair.node_names(), timeout=1_000.0, max_attempts=3)
        for at, (kind, node, level) in schedule:
            world.sim.schedule(at, _apply, world, kind, node, level, client)
        world.run(until=world.now + 2_500.0)

    clock, reference = run_both_ways(scenario, seed=seed)
    assert clock == reference


#: On bare nodes ticks fall on exact multiples of 20 ms, so integer
#: instants tie with them constantly: each tie must resolve by ``seq``.
BARE = st.tuples(
    st.sampled_from([
        "ping", "ping", "crash", "restart", "loss", "link_loss",
        "latency",
    ]),
    NODES,
    st.integers(min_value=0, max_value=3),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    schedule=st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), BARE), max_size=10,
    ),
)
def test_bare_streams_resolve_every_tie_identically(seed, schedule):
    def script(world):
        world.network.bind("alpha", "app")
        world.network.bind("beta", "app")
        for slot, (kind, node, level) in schedule:
            world.sim.schedule(10.0 * slot, _apply, world, kind, node, level)

    assert run_bare(True, script, seed=seed, until=600.0) == \
        run_bare(False, script, seed=seed, until=600.0)
