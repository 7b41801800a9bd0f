"""Transition-parity golden: what one transition must leave behind.

``transition_parity.json`` was recorded from the tree *before* the
transition path announced its boundaries — when the Adaptation Engine
and the script interpreter still probed the fault injector at eight call
sites and kept three stopwatches.  It pins everything that refactor
could move silently:

* the trace digest of the whole mission;
* ``repr()`` of every :class:`ReplicaTransitionReport` field of every
  transition the mission's engines ran (the phase-timing floats to
  their last bit, the error strings, the fetch counters);
* the final state of the ``network`` substream and of every
  ``fetch.<node>`` substream the fetcher drew jitter and bit positions
  from (one per fetch, in creation order);
* every node's ``cpu_speed``/``disk_speed``, the network-wide loss and
  every link's ``latency``/``bandwidth``/``loss`` at mission end — a
  fault window that closed wrongly shows here.

Missions: all 51 transition-matrix cells x 2 seeds on the hosted
repository, plus the unhosted drivers (``table3``, ``figure9``,
``agility``, ``consistency``, one campaign mission).

Re-record (only from a tree whose transition path is the reference)::

    PYTHONPATH=<reference>/src python -m tests.golden.transition_parity --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.adaptation_engine import AdaptationEngine
from repro.eval import (
    agility, campaign, consistency_eval, figure9, table3, transition_matrix,
)
from repro.kernel import World
from repro.kernel.rand import DeterministicRandom

GOLDEN_PATH = Path(__file__).with_name("transition_parity.json")

#: Seeds per matrix cell (the matrix spec's own ``runs=2`` seed sequence).
MATRIX_RUNS = 2


def _digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _rng_state(stream: DeterministicRandom) -> str:
    return _digest(stream._rng.getstate())


def world_fingerprint(world: World, engines, fetch_streams) -> Dict:
    """Everything a transition can touch, in a JSON-safe exact form."""
    network = world.network
    return {
        "trace_digest": world.trace.digest(),
        "now": repr(world.now),
        "reports": [
            [{f.name: repr(getattr(replica, f.name)) for f in fields(replica)}
             for replica in report.replicas]
            for engine in engines for report in engine.history
        ],
        "network_rng": _rng_state(network._rand),
        "fetch_rngs": [[s.name, _rng_state(s)] for s in fetch_streams],
        "speeds": {
            name: [repr(node.cpu_speed), repr(node.disk_speed)]
            for name, node in sorted(world.cluster.nodes.items())
        },
        "loss": repr(network.loss_probability),
        "links": _digest(sorted(
            (key, link.latency, link.bandwidth, link.loss)
            for key, link in network._links.items()
        )),
    }


@contextmanager
def fingerprinted(
    on_world: Optional[Callable[[World], None]] = None,
) -> Iterator[List[Dict]]:
    """Fingerprint every world closed while the block runs.

    The drivers build, run and close their worlds themselves, so the
    block watches from outside: engines and ``fetch.*`` substreams are
    collected as they are made, and each world is fingerprinted on entry
    to its ``close()`` — the last moment its trace is readable.
    ``on_world`` is called with every world right after it is built.
    """
    prints: List[Dict] = []
    engines: List[AdaptationEngine] = []
    streams: List[Tuple[DeterministicRandom, DeterministicRandom]] = []
    world_init, world_close = World.__init__, World.close
    engine_init = AdaptationEngine.__init__
    substream = DeterministicRandom.substream

    def init_world(self, *args, **kwargs) -> None:
        world_init(self, *args, **kwargs)
        if on_world is not None:
            on_world(self)

    def close_world(self) -> None:
        if self.trace.records:  # the first close of a world that ran
            prints.append(world_fingerprint(
                self,
                [e for e in engines if e.world is self],
                [s for root, s in streams if root is self.sim.random],
            ))
        world_close(self)

    def init_engine(self, *args, **kwargs) -> None:
        engine_init(self, *args, **kwargs)
        engines.append(self)

    def tracked_substream(self, name: str) -> DeterministicRandom:
        stream = substream(self, name)
        if name.startswith("fetch."):
            streams.append((self, stream))
        return stream

    World.__init__, World.close = init_world, close_world
    AdaptationEngine.__init__ = init_engine
    DeterministicRandom.substream = tracked_substream
    try:
        yield prints
    finally:
        World.__init__, World.close = world_init, world_close
        AdaptationEngine.__init__ = engine_init
        DeterministicRandom.substream = substream


def _drive(task) -> None:
    """Run an unrun :class:`WorldTask` to completion and close its world."""
    try:
        task.world.sim.advance(task.process.terminated)
        task.result()  # re-raise a failed mission
    finally:
        task.world.close()


def missions() -> Dict[str, Callable[[], None]]:
    """Mission name -> a callable that builds, runs and closes its world(s)."""
    out: Dict[str, Callable[[], None]] = {}
    for trial in transition_matrix.spec(runs=MATRIX_RUNS).trials:
        for seed in trial.seeds:
            out[f"matrix|{trial.key}|{seed}"] = (
                lambda seed=seed, params=trial.params: _drive(
                    transition_matrix.cell_task(
                        seed, params["source"], params["target"],
                        params["fault"], requests=params["requests"],
                    )
                )
            )
    out["table3|pbr->lfr+tr"] = lambda: table3.measure_transition(
        "pbr", "lfr+tr", 1000)
    out["table3|a+lfr->pbr+tr"] = lambda: table3.measure_transition(
        "a+lfr", "pbr+tr", 1001)
    for source, target in figure9.TRANSITIONS:
        out[f"figure9|{source}->{target}"] = (
            lambda s=source, t=target: figure9.measure(s, t, 2000)
        )
    out["agility"] = lambda: agility._trial(3000, {})
    out["consistency"] = lambda: consistency_eval._run_one(4000)
    out["campaign"] = lambda: _drive(campaign.mission_task(5101))
    return out


def fingerprint(
    mission: Callable[[], None],
    on_world: Optional[Callable[[World], None]] = None,
) -> List[Dict]:
    """Run one mission and fingerprint each world it closed."""
    with fingerprinted(on_world) as prints:
        mission()
    return prints


def record() -> Dict:
    """Fingerprint every mission (the golden file's content)."""
    return {name: fingerprint(run) for name, run in missions().items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
