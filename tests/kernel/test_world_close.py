"""The one world lifecycle: build, run, close.

``World.close()`` is the single end-of-life call.  It harvests the event
counters and drops every reference the kernel layer holds into the
finished mission or back onto itself, so a closed world is freed by
reference counting.  Its component runtimes dismantle every component
they installed, so the component layer's cycles go too: a finished
mission leaves the cyclic collector nothing.
"""

import collections
import gc
import weakref

import pytest

from repro.eval import agility, campaign, gray, table3, transition_matrix
from repro.ftm import deploy_ftm_pair
from repro.kernel import (
    BeatMonitor,
    BeatStream,
    Channel,
    Event,
    Fault,
    Process,
    Timeout,
    World,
    take_event_attribution,
)


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
    """Every kernel mechanism that ties a knot: sinks, subscribers and
    hooks closing over the world, tickers on a node that crashes and on
    one that does not, a beat stream, a parked getter with and without a
    timeout, a failed process (its traceback names its own shell), a
    joiner, a crash."""
    network = world.network
    alpha, beta = world.cluster.node("alpha"), world.cluster.node("beta")
    seen = []
    network.bind("beta", "svc").set_sink(seen.append)
    network.bind("beta", "fd").set_sink(BeatMonitor(world.sim, 60.0))
    BeatStream(network, "alpha", lambda: "beta", "fd", "hb", 32, 20.0)
    world.trace.subscribe(lambda record: seen.append(world.now))
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
        world.faults.arm(Fault("crash", "alpha", start=world.now + 1.0))
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


def _left_for_the_collector(mission):
    """How many objects ``mission()`` leaves that only the cyclic
    collector could free, and their types (call with the collector off)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        mission()
        return gc.collect(), collections.Counter(
            type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_finished_mission_leaves_the_collector_nothing(collector_off):
    """The component layer's cycles (Component <-> Reference <-> Wire <->
    Service, implementation <-> component) are broken by ``close()``:
    a finished mission of every kind is freed by reference counting."""
    gray_cell = gray.spec(missions=1).trials[0]
    missions = {
        "campaign": lambda: campaign._trial(5002, {"requests": 30}),
        "gray": lambda: gray._trial(gray_cell.seeds[0], gray_cell.params),
        "table3": lambda: table3._trial(
            1000, {"kind": "transition", "source": "pbr", "target": "lfr"}),
    }
    left = {name: _left_for_the_collector(mission)
            for name, mission in missions.items()}
    assert {name: found for name, (found, _types) in left.items()} == dict.fromkeys(
        missions, 0), left


def test_every_transition_matrix_cell_leaves_the_collector_nothing(collector_off):
    """Rollback re-inserts removed components (``script/corrupt``) and a
    crashed node loses its composites (``*/crash``); every component a
    runtime installed is still dismantled at close."""
    cells = transition_matrix.spec(runs=1).trials
    assert len(cells) == 51
    left = {
        cell.key: _left_for_the_collector(
            lambda: transition_matrix._trial(cell.seeds[0], cell.params))
        for cell in cells
    }
    assert {key: found for key, (found, _types) in left.items()} == dict.fromkeys(
        left, 0), {key: types for key, (found, types) in left.items() if found}


def test_post_mortem_reads_still_answer():
    """Close keeps what readers use after it: composite membership,
    ``Component.implementation`` and the implementation's context."""
    world = World(seed=5)
    pair = world.run_scenario(
        lambda w: deploy_ftm_pair(w, "pbr", ["alpha", "beta"]),
        nodes=("alpha", "beta"))
    composite = pair.replicas[1].composite
    members = sorted(composite.components)
    world.close()
    assert sorted(composite.components) == members
    for component in composite.components.values():
        assert component.implementation.context.node.name == "beta"
        assert component.composite is None and not component.references


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


def test_a_table3_trial_that_raises_still_closes_its_world(monkeypatch):
    from repro.core.adaptation_engine import AdaptationEngine

    closed = []

    class Watched(World):
        def close(self):
            closed.append(self)
            super().close()

    def broken(self, target_ftm, context=None):
        raise RuntimeError("transition broke")
        yield  # pragma: no cover - generator marker

    monkeypatch.setattr(table3, "World", Watched)
    monkeypatch.setattr(AdaptationEngine, "transition", broken)
    with pytest.raises(RuntimeError, match="transition broke"):
        table3.measure_transition("pbr", "lfr", seed=1)
    assert len(closed) == 1 and not closed[0].trace.records


@pytest.mark.parametrize("switch, built", [
    ("repro.core.adaptation_engine.AdaptationEngine.transition", 1),
    ("repro.core.preprogrammed.PreprogrammedAdaptation.switch", 2),
], ids=["agile", "preprogrammed"])
def test_an_agility_trial_that_raises_still_closes_its_worlds(monkeypatch, switch, built):
    closed = []

    class Watched(World):
        def close(self):
            closed.append(self)
            super().close()

    def broken(self, target_ftm, context=None):
        raise RuntimeError("switch broke")
        yield  # pragma: no cover - generator marker

    monkeypatch.setattr(agility, "World", Watched)
    monkeypatch.setattr(switch, broken)
    with pytest.raises(RuntimeError, match="switch broke"):
        agility._trial(3000, {})
    # the agile side runs first: when it breaks, no second world is built
    assert len(closed) == built
    assert not any(world.trace.records for world in closed)


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
