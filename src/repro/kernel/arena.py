"""The world arena: build a world once, snapshot it, reset it, rerun it.

Campaign-scale workloads run thousands of tiny missions, each in its own
:class:`~repro.kernel.world.World`.  A mission builder *leases* its world
from the process-wide :class:`WorldArena` instead of constructing one
(:func:`lease_world`), wraps the scenario in a :class:`WorldTask`, drives
it with :func:`run_solo` exactly as :meth:`Simulator.run_process` would —
until the task process terminates; a failing task raises, a world going
idle before its task finished raises :class:`SimulationError` (deadlock)
— and the world goes back to the arena (:func:`release_world`).  Reset is
behaviourally byte-identical to fresh construction;
:func:`set_world_reuse` turns the arena off so tests can compare against
fresh builds.
"""

from __future__ import annotations

import os
from typing import (
    Any, Callable, Dict, Generator, List, Sequence, Tuple, Union,
)

from repro.kernel.errors import SimulationError
from repro.kernel.sim import harvest_event_attribution
from repro.kernel.world import World, WorldSnapshot

#: A scenario is either a ready generator or a callable ``world -> gen``
#: (the same convention as :meth:`World.run_scenario`).
Scenario = Union[Generator, Callable[[World], Generator]]


class WorldArena:
    """A per-process cache of reusable worlds keyed by builder identity.

    A mission builder *leases* a world instead of constructing one: on a
    miss the arena builds it (``build(seed)``), snapshots the wired
    platform, and hands it out; on a hit it pops a previously released
    world and :meth:`~repro.kernel.world.World.reset`\\ s it to the
    snapshot under the mission's seed.  Because reset is behaviourally
    byte-identical to fresh construction, leased worlds produce the same
    stores as fresh ones — the reuse is invisible except in wall time.

    The ``key`` must capture everything ``build`` depends on besides the
    seed (one key per world shape); every executor backend drains
    through the same path because the arena lives in the worker process
    that runs the builder.
    """

    def __init__(self, max_per_key: int = 32):
        self.max_per_key = max_per_key
        self._free: Dict[str, List[Tuple[World, WorldSnapshot]]] = {}
        self.hits = 0
        self.misses = 0

    def lease(self, key: str, seed: int,
              build: Callable[[int], World]) -> World:
        """A world wired as ``build(seed)`` would wire it, possibly reused."""
        free = self._free.get(key)
        if free:
            world, snapshot = free.pop()
            world.reset(snapshot, seed)
            self.hits += 1
        else:
            world = build(seed)
            snapshot = world.snapshot()
            self.misses += 1
        world._arena_lease = (self, key, snapshot)
        return world

    def release(self, world: World, key: str,
                snapshot: WorldSnapshot) -> None:
        """Return a leased world to the free list (reset happens on lease).

        Parked worlds are trimmed first so they pin only their wiring —
        not the last mission's traces, storage and event-graph garbage.
        """
        free = self._free.setdefault(key, [])
        if len(free) < self.max_per_key:
            world.trim()
            free.append((world, snapshot))

    def pooled(self) -> int:
        """How many worlds are parked across all keys."""
        return sum(len(free) for free in self._free.values())

    def clear(self) -> None:
        """Drop every parked world and zero the hit/miss counters."""
        self._free.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide arena every lease goes through (one per worker).
_ARENA = WorldArena()

#: Reuse toggle — ``REPRO_WORLD_REUSE=0`` (or :func:`set_world_reuse`)
#: forces fresh construction everywhere, the reference the byte-identity
#: tests compare against.
_REUSE_ENABLED = os.environ.get("REPRO_WORLD_REUSE", "1") != "0"


def set_world_reuse(enabled: bool) -> None:
    """Enable or disable the world arena process-wide (tests, benches)."""
    global _REUSE_ENABLED
    _REUSE_ENABLED = bool(enabled)


def world_reuse_enabled() -> bool:
    """Is the lease path currently reusing worlds?"""
    return _REUSE_ENABLED


def lease_world(key: str, seed: int,
                build: Callable[[int], World]) -> World:
    """Lease from the process arena, or build fresh when reuse is off."""
    if not _REUSE_ENABLED:
        return build(seed)
    return _ARENA.lease(key, seed, build)


def release_world(world: World) -> None:
    """Hand a leased world back to its arena (no-op otherwise; idempotent).

    This is also the chokepoint where the world's per-run event
    attribution counters are folded into the process-wide accumulator —
    every mission drains through here, leased or fresh.
    """
    harvest_event_attribution(world.sim)
    lease = world.__dict__.pop("_arena_lease", None)
    if lease is not None and _REUSE_ENABLED:
        arena, key, snapshot = lease
        arena.release(world, key, snapshot)


def world_arena_stats() -> Dict[str, int]:
    """Lease counters of the process arena (for benches and leak tests)."""
    return {
        "hits": _ARENA.hits,
        "misses": _ARENA.misses,
        "pooled": _ARENA.pooled(),
    }


def clear_world_arena() -> None:
    """Empty the process arena (tests isolate themselves with this)."""
    _ARENA.clear()


class WorldTask:
    """One world plus the process that drives it to completion.

    The task's *result* is the driving process's return value.  Creating
    a task spawns the process but runs none of its code — execution
    happens under :func:`run_solo`.
    """

    __slots__ = ("world", "process", "name")

    def __init__(
        self,
        world: World,
        scenario: Scenario,
        nodes: Sequence[str] = (),
        name: str = "scenario",
    ):
        if nodes:
            world.add_nodes(list(nodes))
        gen = scenario(world) if callable(scenario) else scenario
        self.world = world
        self.name = name
        self.process = world.sim.spawn(gen, name=name)

    @property
    def done(self) -> bool:
        """Has the driving process terminated (successfully or not)?"""
        return self.process.terminated.triggered

    def result(self) -> Any:
        """The driving process's return value; re-raises its failure."""
        if not self.done:
            raise SimulationError(f"task {self.name!r} has not finished")
        if self.process.exception is not None:
            raise self.process.exception
        return self.process.result


def run_solo(task: WorldTask) -> Any:
    """Drive one task to completion and return its result.

    Structurally identical to ``World.run_scenario``.  A leased world
    is returned to its arena once the result is out; the task object
    itself stays valid for the caller.
    """
    task.world.sim.advance(task.process.terminated)
    if not task.done:
        raise SimulationError(
            f"task {task.name!r} never terminated (deadlock?)"
        )
    result = task.result()
    release_world(task.world)
    return result
