"""The one world lifecycle: build, run, close.

``World.close()`` is the single end-of-life call.  It harvests the event
counters and drops every reference the kernel layer holds into the
finished mission or back onto itself, so a closed world is freed by
reference counting — the cyclic collector is left with the component
layer's own cycles and whatever empty kernel shells those still name,
never with a mission's processes, frames and trace.
"""

import collections
import gc
import types
import weakref

import pytest

from repro.eval import campaign
from repro.kernel import (
    BeatMonitor,
    BeatStream,
    Channel,
    Cluster,
    Event,
    Message,
    Process,
    Simulator,
    Timeout,
    Trace,
    TraceRecord,
    World,
    take_event_attribution,
)
from repro.kernel.sim import Handle


@pytest.fixture
def collector_off():
    """Only reference counting frees anything while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _kernel_mission(world):
    """Every kernel mechanism that ties a knot: sinks, subscribers,
    filters and hooks closing over the world, tickers on a node that
    crashes and on one that does not, a beat stream, a parked getter
    with and without a timeout, a failed process (its traceback names
    its own shell), a joiner, a crash."""
    network = world.network
    alpha, beta = world.cluster.node("alpha"), world.cluster.node("beta")
    seen = []
    network.bind("beta", "svc").set_sink(seen.append)
    network.bind("beta", "fd").set_sink(BeatMonitor(world.sim, 60.0))
    BeatStream(network, "alpha", lambda: "beta", "fd", "hb", 32, 20.0)
    world.trace.subscribe(lambda record: seen.append(world.now))
    network.add_delivery_filter(lambda m: m if world.now >= 0 else None)
    alpha.on_crash(lambda node: seen.append(world))
    beta.on_restart(lambda node: seen.append(world))
    alpha.every(10.0, lambda: network.send("alpha", "beta", "svc", "t", 16))
    beta.every(15.0, lambda: network.send("beta", "alpha", "svc", "t", 16))
    inbox = network.bind("alpha", "probe-inbox")

    def parked(timeout):
        yield inbox.get(timeout=timeout)

    alpha.spawn(parked(None), "probe-parked")
    alpha.spawn(parked(1e9), "probe-parked-timed")

    def failing():
        yield Timeout(5.0)
        raise RuntimeError("boom")

    failed = beta.spawn(failing(), "probe-failing")

    def joiner():
        try:
            yield failed
        except RuntimeError:
            pass
        yield Event(world.sim)  # never triggered

    beta.spawn(joiner(), "probe-joiner")

    def main():
        for i in range(5):
            yield Timeout(7.0)
            world.storage.write("alpha", "k", i)
            world.storage.append("log", i)
        world.faults.schedule_crash(alpha, at=world.now + 1.0)
        yield Timeout(50.0)
        return len(seen)

    return world.run_process(main(), name="probe-main")


def _probe_survivors():
    """Channels and processes of :func:`_kernel_mission` still alive
    (they are slotted, so they cannot be weakly referenced)."""
    return [
        obj.name for obj in gc.get_objects()
        if isinstance(obj, (Channel, Process)) and "probe-" in obj.name
    ]


def test_a_closed_world_is_freed_by_reference_counting(collector_off):
    world = World(seed=3)
    world.add_nodes(["alpha", "beta"])
    assert _kernel_mission(world) > 0
    assert len(_probe_survivors()) >= 5
    refs = [weakref.ref(obj) for obj in (
        world, world.sim, world.trace, world.network, world.storage,
        world.faults, world.cluster.node("alpha"),
    )]

    world.close()
    del world

    assert [ref() for ref in refs] == [None] * len(refs)
    assert _probe_survivors() == []
    gc.set_debug(gc.DEBUG_SAVEALL)
    assert gc.collect() == 0, collections.Counter(
        type(obj).__name__ for obj in gc.garbage)


def test_a_campaign_world_dies_with_its_last_name(collector_off):
    task = campaign.mission_task(5001, requests=8)
    world = task.world
    world.sim.advance(task.process.terminated)
    assert task.result()["all_ok"]
    ref = weakref.ref(world)
    world.close()
    del task, world
    assert ref() is None


#: What a mission is made of: none of it may wait for the collector.
_MISSION_STATE = (
    World, Cluster, TraceRecord, Handle, Message, types.GeneratorType,
    types.FrameType, types.TracebackType,
)


def test_the_collector_finds_only_empty_kernel_shells(collector_off):
    """The component layer's cycles (Component <-> Reference <-> Wire)
    are still the collector's, and they name their simulator, nodes and
    network (``Component.sim``, ``NodeContext``) — by then emptied."""
    campaign._trial(5001, {"requests": 30})
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    campaign._trial(5002, {"requests": 30})
    assert gc.collect() > 0  # the component layer's cycles
    garbage = list(gc.garbage)

    assert not [o for o in garbage if isinstance(o, _MISSION_STATE)]
    for shell in garbage:
        if isinstance(shell, Simulator):
            assert not shell._queue and not shell._ready
            assert not shell.processes and shell._beat_clock is None
        elif isinstance(shell, Trace):
            assert not shell.records and not shell._subscribers
        elif isinstance(shell, Process):
            assert shell.gen is None and shell._resume_cb is None
            assert shell.exception is None
        elif isinstance(shell, Channel):
            assert not shell._items and not shell._getters


def test_close_twice_harvests_once_and_keeps_the_clock():
    take_event_attribution()
    world = World(seed=3)
    world.add_nodes(["alpha", "beta"])
    _kernel_mission(world)
    ended = world.now
    assert ended > 0 and world.sim.events_by_source["timer"] > 0

    world.close()
    first = take_event_attribution()
    assert first["timer"] > 0 and first["fault"] == 1
    assert world.sim.events_by_source["timer"] == 0  # moved, not copied
    assert world.sim.pending() == 0 and not world.trace.records
    assert not world.storage.exists("alpha", "k")
    assert world.storage.last("log") is None

    world.close()
    assert not any(take_event_attribution().values())
    assert world.now == ended


def test_two_hundred_missions_leave_the_heap_flat():
    """The leak regression: worlds come and go, the process stays level."""

    def live_objects():
        gc.collect()
        return len(gc.get_objects())

    for seed in range(20):
        campaign._trial(5000 + seed, {"requests": 8})
    settled = live_objects()
    for seed in range(20, 200):
        campaign._trial(5000 + seed, {"requests": 8})
    assert abs(live_objects() - settled) <= 0.01 * settled
