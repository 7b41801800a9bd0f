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

    def scenario():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    return WorldTask(world, scenario(), name="failing")


def _deadlocked_task():
    world = World(seed=2)

    def scenario():
        yield Event(world.sim)  # never triggered

    return WorldTask(world, scenario(), name="stuck")


def test_failing_task_propagates_from_solo():
    with pytest.raises(RuntimeError, match="boom"):
        run_solo(_failing_task())


def test_deadlocked_task_raises_like_run_process():
    with pytest.raises(SimulationError, match="never terminated"):
        run_solo(_deadlocked_task())


def test_result_before_completion_raises():
    task = _rng_task(5)
    assert not task.done
    with pytest.raises(SimulationError, match="has not finished"):
        task.result()


def test_worldtask_adds_nodes_and_accepts_callable_scenario():
    world = World(seed=9)

    def scenario(w):
        yield Timeout(1.0)
        return sorted(w.cluster.nodes)

    task = WorldTask(world, scenario, nodes=("alpha", "beta"))
    assert run_solo(task) == ["alpha", "beta"]
