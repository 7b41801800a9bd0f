"""Beat-parity golden: what a mission must leave behind, heartbeat by heartbeat.

``beat_parity.json`` was recorded from the tree *before* the virtual beat
clock replaced the per-beat kernel events (two heap entries per
heartbeat).  Successful beats write no trace record, so the trace digest
alone would miss a mis-replayed beat; the fingerprint therefore also
covers everything a beat touches silently: the ``network`` random
stream's final state (loss and jitter draws, in order), the per-node
``energy`` float accumulation and byte counters, the network's message
counters and every failure detector's ``heartbeats_seen``.

Re-record (only from a tree whose beat semantics are the reference)::

    PYTHONPATH=<reference>/src python -m tests.golden.beat_parity --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List

from repro.eval import campaign, gray, transition_matrix
from repro.ftm.failure_detector import HeartbeatFailureDetector
from repro.kernel import WorldTask

GOLDEN_PATH = Path(__file__).with_name("beat_parity.json")

SEEDS = tuple(range(8))

_GRAY = (("pbr", "cpu"), ("pbr", "link"), ("pbr", "disk"),
         ("lfr", "cpu"), ("lfr", "link"), ("lfr", "disk"))
_MATRIX_FAULTS = (
    "script/crash", "fetch/corrupt", "fetch/omission", "script/slow",
)


def _matrix_task(seed: int) -> WorldTask:
    """One transition-matrix cell; 8 seeds cover each fault kind twice."""
    source, target = transition_matrix.TRANSITIONS[
        seed % len(transition_matrix.TRANSITIONS)
    ]
    fault = _MATRIX_FAULTS[seed % len(_MATRIX_FAULTS)]
    return transition_matrix.cell_task(7000 + seed, source, target, fault)


def _gray_task(seed: int) -> WorldTask:
    """One limp x8 gray mission; 8 seeds cover cpu/link/disk on both FTMs."""
    ftm, resource = _GRAY[seed % len(_GRAY)]
    return gray.gray_task(41_000 + seed, ftm=ftm, resource=resource,
                          factor=8.0)


#: scenario name -> seed index -> unrun task
SCENARIOS: Dict[str, Callable[[int], WorldTask]] = {
    "campaign": lambda seed: campaign.mission_task(5000 + 101 * seed),
    "gray": _gray_task,
    "transition-matrix": _matrix_task,
}


@contextmanager
def tracked_detectors() -> Iterator[List[HeartbeatFailureDetector]]:
    """Collect every failure detector attached while the block runs."""
    attached: List[HeartbeatFailureDetector] = []
    original = HeartbeatFailureDetector.on_attach

    def on_attach(self) -> None:
        original(self)
        attached.append(self)

    HeartbeatFailureDetector.on_attach = on_attach
    try:
        yield attached
    finally:
        HeartbeatFailureDetector.on_attach = original


def world_fingerprint(world, detectors) -> Dict:
    """Everything a beat can touch, in a JSON-safe exact form."""
    network = world.network
    rng_state = repr(network._rand._rng.getstate()).encode()
    return {
        "trace_digest": world.trace.digest(),
        "network_rng": hashlib.blake2b(rng_state, digest_size=16).hexdigest(),
        "now": repr(world.sim.now),
        "messages": [network.messages_sent, network.messages_delivered,
                     network.messages_dropped],
        "nodes": {
            name: [repr(node.energy), node.bytes_sent, node.bytes_received]
            for name, node in sorted(world.cluster.nodes.items())
        },
        "heartbeats_seen": [
            [fd.ctx.node.name, fd.heartbeats_seen] for fd in detectors
        ],
    }


def fingerprint(scenario: str, seed: int) -> Dict:
    """Run one scenario mission to completion and fingerprint its world."""
    with tracked_detectors() as detectors:
        task = SCENARIOS[scenario](seed)
        world = task.world
        try:
            world.sim.advance(task.process.terminated)
            task.result()  # re-raise a failed mission
            return world_fingerprint(world, detectors)
        finally:
            world.close()


def record() -> Dict:
    """Fingerprint every scenario x seed (the golden file's content)."""
    return {
        scenario: [fingerprint(scenario, seed) for seed in SEEDS]
        for scenario in SCENARIOS
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
