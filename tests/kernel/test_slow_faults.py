"""Tests for fault records and the gray-failure (slow) fault models.

A limp is *slow, not dead*: the node stays up, so nothing but timing
changes.  The invariants here are exact-revert (speeds return to the
byte-identical originals — no float drift), a window that closes once,
composability with other slowdowns, and the validation every
:class:`Fault` does when it is built.
"""

import pytest

from repro.kernel import Fault, Timeout, World
from repro.kernel.faults import SLOW_RESOURCES


def make_world(seed=7):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    return world


def _sample(world, read, *times):
    """Run ``world``, calling ``read()`` at each absolute simulated time."""
    seen = []

    def probe():
        for at in times:
            yield Timeout(at - world.now)
            seen.append(read())

    world.run_process(probe(), name="probe")
    return seen


# -- slow windows: exact, revertible, composable ---------------------------------


def test_slow_cpu_divides_and_reverts_exactly():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(Fault("slow", "alpha", end=100.0, resource="cpu",
                           factor=4.0))
    # byte-exact, not approximately
    assert _sample(world, lambda: node.cpu_speed, 50.0, 150.0) == [0.25, 1.0]


def test_slow_disk_divides_and_reverts_exactly():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(Fault("slow", "alpha", end=100.0, resource="disk",
                           factor=8.0))
    assert _sample(world, lambda: node.disk_speed, 50.0, 150.0) == [0.125, 1.0]


def test_slow_link_touches_both_directions():
    world = make_world()
    out_link = world.network.link("alpha", "beta")
    in_link = world.network.link("beta", "alpha")
    healthy = [(link.latency, link.bandwidth) for link in (out_link, in_link)]
    world.faults.arm(Fault("slow", "alpha", end=100.0, resource="link",
                           factor=8.0))

    def read():
        return [(link.latency, link.bandwidth) for link in (out_link, in_link)]

    during, after = _sample(world, read, 50.0, 150.0)
    assert during == [(latency * 8.0, bandwidth / 8.0)
                      for latency, bandwidth in healthy]
    assert after == healthy


def test_revert_is_idempotent():
    """A phase's slow window closes once, however often the phase is left."""
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(Fault("slow", "alpha", phase="script", resource="cpu",
                           factor=4.0))
    world.trace.announce("script", "enter", node)
    assert node.cpu_speed == 0.25
    world.trace.announce("script", "leave", node)
    world.trace.announce("script", "leave", node)  # must not over-correct
    assert node.cpu_speed == 1.0


def test_slowdowns_compose_and_unwind_in_any_order():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(
        Fault("slow", "alpha", start=0.0, end=200.0, resource="cpu", factor=2.0),
        Fault("slow", "alpha", start=100.0, end=300.0, resource="cpu",
              factor=4.0),
    )
    # the first window closes while the second is still open
    assert _sample(world, lambda: node.cpu_speed, 50.0, 150.0, 250.0, 350.0) \
        == [0.5, 0.125, 0.25, 1.0]


def test_slow_fault_traces_apply_and_revert():
    world = make_world()
    world.faults.arm(Fault("slow", "alpha", end=10.0, resource="disk",
                           factor=2.0))
    world.run()
    assert world.trace.count("fault", "arm_slow") == 1
    assert world.trace.count("fault", "slow_applied") == 1
    assert world.trace.count("fault", "slow_reverted") == 1
    assert world.sim.events_by_source["fault"] == 2  # apply + revert


def test_slow_window_applies_and_reverts_on_schedule():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(Fault("slow", "alpha", start=100.0, end=300.0,
                           resource="cpu", factor=8.0))
    # t=50: not yet; t=150: limping; t=350: reverted
    assert _sample(world, lambda: node.cpu_speed, 50.0, 150.0, 350.0) \
        == [1.0, 0.125, 1.0]


def test_slow_without_end_limps_forever():
    world = make_world()
    node = world.cluster.node("alpha")
    world.faults.arm(Fault("slow", "alpha", resource="cpu", factor=2.0))
    assert _sample(world, lambda: node.cpu_speed, 10_000.0) == [0.5]
    assert node.is_up  # slow, not dead


def test_slow_window_is_deterministic_across_runs():
    def trace_of():
        world = make_world()
        world.faults.arm(Fault("slow", "alpha", start=50.0, end=150.0,
                               resource="link", factor=4.0))
        _sample(world, lambda: None, 500.0)
        return [
            (r.time, r.category, r.event, r.details)
            for r in world.trace.records
        ]

    assert trace_of() == trace_of()


# -- validation: a fault record checks itself when built ---------------------------


@pytest.mark.parametrize("resource", ["gpu", "", "network"])
def test_slow_rejects_unknown_resource(resource):
    with pytest.raises(ValueError, match="unknown slow resource"):
        Fault("slow", "alpha", resource=resource, factor=2.0)
    with pytest.raises(ValueError, match="unknown slow resource"):
        Fault("slow", "alpha", phase="script", resource=resource)


def test_transition_fault_validates_slow_resource():
    world = make_world()
    with pytest.raises(ValueError, match="unknown slow resource"):
        world.faults.arm(Fault("slow", "alpha", phase="script",
                               resource="gpu"))


@pytest.mark.parametrize(
    "factor", [0.5, 0.0, -3.0, float("nan"), float("inf")])
def test_slow_rejects_sub_unity_factor(factor):
    with pytest.raises(ValueError, match="factor must be >= 1"):
        Fault("slow", "alpha", resource="cpu", factor=factor)
    with pytest.raises(ValueError, match="factor must be >= 1"):
        Fault("slow", "alpha", phase="script", factor=factor)


@pytest.mark.parametrize("fields, reason", [
    (dict(kind="slow", phase="script", factor=0.5), "factor"),
    (dict(kind="slow", phase="script", factor=float("nan")), "factor"),
    (dict(kind="slow", node="alpha", factor=float("inf")), "factor"),
    (dict(kind="omission", phase="fetch", probability=1.5), "probability"),
    (dict(kind="omission", phase="fetch", probability=-2.0), "probability"),
    (dict(kind="value", node="alpha", probability=-0.1), "probability"),
    (dict(kind="value", node="alpha", probability=1.5), "probability"),
    (dict(kind="crash", phase="deploy", statement=1), "statement"),
    (dict(kind="corrupt", phase="script", statement=3), "statement"),
    (dict(kind="crash", phase="script", statement=-1), "statement"),
    (dict(kind="crash", phase="script", budget=0), "budget"),
    (dict(kind="corrupt", node="alpha"), "timed fault cannot be"),
    (dict(kind="omission", node="alpha"), "timed fault cannot be"),
    (dict(kind="value", node="alpha", phase="script"), "fault cannot be"),
    (dict(kind="crash", phase="boot"), "unknown transition phase"),
    (dict(kind="crash"), "needs a node"),
    (dict(kind="crash", node="alpha", end=10.0), "no end"),
    (dict(kind="slow", node="alpha", phase="fetch", start=5.0), "no time window"),
    (dict(kind="value", node="alpha", start=100.0, end=50.0), "ends before"),
    (dict(kind="slow", node="alpha", start=0.0, end=-1.0), "ends before"),
], ids=[
    "phase-slow-factor-0.5", "phase-slow-factor-nan", "slow-factor-inf",
    "omission-probability-1.5", "omission-probability--2.0",
    "value-probability--0.1", "value-probability-1.5",
    "deploy-crash-statement", "script-corrupt-statement",
    "negative-statement", "budget-0", "timed-corrupt", "timed-omission",
    "phase-value", "unknown-phase", "timed-without-node", "crash-with-end",
    "phase-with-window", "value-window-ends-before-start",
    "slow-window-ends-before-start",
])
def test_fault_rejects_what_it_cannot_fire(fields, reason):
    with pytest.raises(ValueError, match=reason):
        Fault(**fields)


@pytest.mark.parametrize("probability", [-0.1, 1.5])
def test_omission_rates_reject_bad_probability(probability):
    with pytest.raises(ValueError, match="probability"):
        Fault("omission", phase="fetch", probability=probability)
    with pytest.raises(ValueError, match="probability"):
        Fault("omission", "beta", phase="remove", probability=probability)


def test_slow_resources_vocabulary_is_stable():
    assert SLOW_RESOURCES == ("cpu", "link", "disk")
