"""Property: a transition's fault windows close behind it, whatever was armed.

Slow and omission faults on the transition path are *windows*: they open
when the faulted phase starts and must be gone when it ends — however it
ends, however many are open at once, in whatever order they close.  Once
the transition and its recovery tail are over, every speed, every link
and the network-wide loss read exactly what they read before.

Nothing here touches the boundary stream, so the file runs unchanged on
the tree that still probed: there the first test and the property's
first example fail on the leak they describe.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AdaptationEngine, Repository
from repro.ftm import deploy_ftm_pair
from repro.kernel import TRANSITION_FAULT_KINDS, TRANSITION_PHASES, Timeout, World

#: The resource a ``slow`` fault limps per phase (as the matrix arms it).
SLOW_RESOURCE = {"fetch": "link", "deploy": "disk", "script": "cpu",
                 "remove": "disk"}


def _platform_state(world):
    network = world.network
    return (
        {name: (node.cpu_speed, node.disk_speed)
         for name, node in world.cluster.nodes.items()},
        {key: (link.latency, link.bandwidth, link.loss)
         for key, link in network._links.items()},
        network.loss_probability,
    )


def _transition_under(faults, hosted, slow_beta, seed=1):
    """Deploy PBR, arm ``faults``, transition to LFR, sit out the tail;
    returns the platform state before and after, and the report."""
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    repository = Repository()
    if hosted:
        repository.attach(world)

    def scenario():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        pair.enable_recovery(restart_delay=300.0)
        if slow_beta:
            beta = world.cluster.node("beta")
            beta.cpu_speed /= 2
            beta.disk_speed /= 2
        engine = AdaptationEngine(world, pair, repository)
        before = _platform_state(world)
        for phase, kind, node, budget in faults:
            world.faults.arm_transition_fault(
                phase, kind, node=node, budget=budget, probability=0.3,
                resource=SLOW_RESOURCE[phase], factor=8.0,
            )
        report = yield from engine.transition("lfr")
        yield Timeout(10_000.0)  # recovery / quarantine tail
        return before, _platform_state(world), report

    return world, world.run_process(scenario(), name="scenario")


def test_overlapping_omission_windows_restore_the_base_loss():
    """The leak: two network-wide windows closed in opening order used to
    save and restore absolute values, so the second restore reinstated
    the first window's loss for good — after a *successful* transition."""
    world, (before, after, report) = _transition_under(
        [("fetch", "omission", None, 2)], hosted=False, slow_beta=True
    )
    assert report.outcome == "success"
    assert world.faults.transition_faults_injected == {"fetch/omission": 2}
    assert world.network.loss_probability == 0.0
    assert after == before


@given(
    faults=st.lists(
        st.tuples(
            st.sampled_from(TRANSITION_PHASES),
            st.sampled_from(TRANSITION_FAULT_KINDS),
            st.sampled_from(["alpha", "beta", None]),
            st.sampled_from([1, 2]),
        ),
        max_size=4,
    ),
    hosted=st.booleans(),
    slow_beta=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(faults=[("fetch", "omission", None, 2)], hosted=False,
         slow_beta=False, seed=1)
@example(faults=[("script", "omission", "alpha", 1),
                 ("script", "omission", "beta", 1),
                 ("script", "slow", None, 2)], hosted=False,
         slow_beta=True, seed=2)
@settings(max_examples=60, deadline=None)
def test_fault_windows_close_behind_the_transition(faults, hosted, slow_beta, seed):
    world, (before, after, report) = _transition_under(
        faults, hosted, slow_beta, seed
    )
    assert report.outcome in ("success", "degraded")
    assert after == before
