"""Tests for the gray-failure (slow) fault models in the kernel.

A limp is *slow, not dead*: the node stays up, so nothing but timing
changes.  The invariants here are exact-revert (speeds return to the
byte-identical originals — no float drift), idempotent revert closures,
composability with other slowdowns, and the argument validation the
injector promises.
"""

import pytest

from repro.kernel import Timeout, World
from repro.kernel.faults import SLOW_RESOURCES, FaultKind


def make_world(seed=7):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    return world


# -- apply_slow: exact, revertible, composable -----------------------------------


def test_apply_slow_cpu_divides_and_reverts_exactly():
    world = make_world()
    node = world.cluster.node("alpha")
    revert = world.faults.apply_slow(node, "cpu", 4.0)
    assert node.cpu_speed == 0.25
    revert()
    assert node.cpu_speed == 1.0  # byte-exact, not approximately


def test_apply_slow_disk_divides_and_reverts_exactly():
    world = make_world()
    node = world.cluster.node("alpha")
    revert = world.faults.apply_slow(node, "disk", 8.0)
    assert node.disk_speed == 0.125
    revert()
    assert node.disk_speed == 1.0


def test_apply_slow_link_touches_both_directions():
    world = make_world()
    node = world.cluster.node("alpha")
    out_link = world.network.link("alpha", "beta")
    in_link = world.network.link("beta", "alpha")
    latency, bandwidth = out_link.latency, out_link.bandwidth
    revert = world.faults.apply_slow(node, "link", 8.0)
    for link in (out_link, in_link):
        assert link.latency == latency * 8.0
        assert link.bandwidth == bandwidth / 8.0
    revert()
    for link in (out_link, in_link):
        assert link.latency == latency
        assert link.bandwidth == bandwidth


def test_revert_is_idempotent():
    world = make_world()
    node = world.cluster.node("alpha")
    revert = world.faults.apply_slow(node, "cpu", 4.0)
    revert()
    revert()  # second call must not over-correct
    assert node.cpu_speed == 1.0


def test_slowdowns_compose_and_unwind_in_any_order():
    world = make_world()
    node = world.cluster.node("alpha")
    first = world.faults.apply_slow(node, "cpu", 2.0)
    second = world.faults.apply_slow(node, "cpu", 4.0)
    assert node.cpu_speed == 0.125
    first()
    assert node.cpu_speed == 0.25
    second()
    assert node.cpu_speed == 1.0


def test_apply_slow_counts_and_traces():
    world = make_world()
    node = world.cluster.node("alpha")
    revert = world.faults.apply_slow(node, "disk", 2.0)
    revert()
    assert world.faults.injected_counts[FaultKind.SLOW] == 1
    assert world.trace.count("fault", "slow_applied") == 1
    assert world.trace.count("fault", "slow_reverted") == 1


# -- arm_slow: scheduled limp windows ----------------------------------------------


def test_arm_slow_window_applies_and_reverts_on_schedule():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm_slow(node, "cpu", 8.0, start=100.0, duration=200.0)
    observed = {}

    def probe():
        yield Timeout(50.0)
        observed["before"] = node.cpu_speed   # t=50: not yet
        yield Timeout(100.0)
        observed["during"] = node.cpu_speed   # t=150: limping
        yield Timeout(200.0)
        observed["after"] = node.cpu_speed    # t=350: reverted

    world.run_process(probe(), name="probe")
    assert observed == {"before": 1.0, "during": 0.125, "after": 1.0}


def test_arm_slow_without_duration_limps_forever():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm_slow(node, "cpu", 2.0, start=0.0)

    def probe():
        yield Timeout(10_000.0)
        return node.cpu_speed

    assert world.run_process(probe(), name="probe") == 0.5
    assert node.is_up  # slow, not dead


def test_arm_slow_is_deterministic_across_runs():
    def trace_of():
        world = make_world()
        world.faults.arm_slow(
            world.cluster.node("alpha"), "link", 4.0,
            start=50.0, duration=100.0,
        )

        def wait():
            yield Timeout(500.0)

        world.run_process(wait(), name="wait")
        return [
            (r.time, r.category, r.event, r.details)
            for r in world.trace.records
        ]

    assert trace_of() == trace_of()


# -- validation (satellite: argument validation across the injector) ---------------


@pytest.mark.parametrize("resource", ["gpu", "", "network"])
def test_slow_rejects_unknown_resource(resource):
    world = make_world()
    node = world.cluster.node("alpha")
    with pytest.raises(ValueError, match="unknown slow resource"):
        world.faults.apply_slow(node, resource, 2.0)
    with pytest.raises(ValueError, match="unknown slow resource"):
        world.faults.arm_slow(node, resource, 2.0)


@pytest.mark.parametrize("factor", [0.5, 0.0, -3.0, float("nan")])
def test_slow_rejects_sub_unity_factor(factor):
    world = make_world()
    node = world.cluster.node("alpha")
    with pytest.raises(ValueError, match="factor must be >= 1"):
        world.faults.apply_slow(node, "cpu", factor)


def test_arm_slow_rejects_negative_duration():
    world = make_world()
    node = world.cluster.node("alpha")
    with pytest.raises(ValueError, match="duration must be >= 0"):
        world.faults.arm_slow(node, "cpu", 2.0, duration=-1.0)


@pytest.mark.parametrize("probability", [-0.1, 1.5])
def test_arm_transient_rejects_bad_probability(probability):
    world = make_world()
    with pytest.raises(ValueError, match="probability"):
        world.faults.arm_transient("alpha", probability=probability)


def test_arm_transient_rejects_window_ending_before_start():
    world = make_world()
    with pytest.raises(ValueError, match="end"):
        world.faults.arm_transient("alpha", probability=0.5,
                                   start=100.0, end=50.0)


@pytest.mark.parametrize("probability", [-0.1, 1.5])
def test_omission_rates_reject_bad_probability(probability):
    world = make_world()
    with pytest.raises(ValueError, match="probability"):
        world.faults.set_omission_rate(world.network, probability)
    with pytest.raises(ValueError, match="probability"):
        world.faults.set_link_omission_rate(
            world.network, "alpha", "beta", probability
        )


def test_arm_transition_fault_validates_slow_resource():
    world = make_world()
    with pytest.raises(ValueError, match="unknown slow resource"):
        world.faults.arm_transition_fault("script", "slow", node="alpha",
                                          resource="gpu")


def test_slow_resources_vocabulary_is_stable():
    assert SLOW_RESOURCES == ("cpu", "link", "disk")
