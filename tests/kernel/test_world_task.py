"""WorldTask / run_solo: the drive-to-completion contract.

A :class:`WorldTask` is driven exactly as ``Simulator.run_process``
drives a process (see :mod:`repro.kernel.world`): until it terminates,
with failures and deadlocks raised to the caller.
"""

import pytest

from repro.kernel import (
    Event,
    SimulationError,
    Timeout,
    World,
    WorldTask,
    run_solo,
)


def _rng_task(seed, steps=5):
    """A task whose result encodes its RNG stream and local clock."""
    world = World(seed=seed)

    def scenario():
        values = []
        for _ in range(steps):
            yield Timeout(float(1 + seed % 5))
            values.append(world.sim.random.randint(0, 10_000))
        return {"seed": seed, "values": values, "end": world.sim.now}

    return WorldTask(world, scenario(), name=f"rng-{seed}")


def _failing_task():
    world = World(seed=1)

    def background():
        yield Timeout(100.0)

    def scenario():
        world.sim.spawn(background())
        yield Timeout(1.0)
        raise RuntimeError("boom")

    return WorldTask(world, scenario(), name="failing")


def _deadlocked_task():
    world = World(seed=2)

    def scenario():
        yield Event(world.sim)  # never triggered

    return WorldTask(world, scenario(), name="stuck")


def _assert_closed(world):
    """``World.close()`` ran: no event is queued and no process is left."""
    assert world.sim.pending() == 0
    assert world.sim.processes == []


def test_failing_task_propagates_from_solo():
    task = _failing_task()
    with pytest.raises(RuntimeError, match="boom"):
        run_solo(task)
    _assert_closed(task.world)  # the background timer did not outlive it


def test_deadlocked_task_raises_like_run_process():
    task = _deadlocked_task()
    with pytest.raises(SimulationError, match="never terminated"):
        run_solo(task)
    _assert_closed(task.world)


def test_result_before_completion_raises():
    task = _rng_task(5)
    assert not task.done
    with pytest.raises(SimulationError, match="has not finished"):
        task.result()

