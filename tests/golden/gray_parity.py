"""Gray-parity golden: what every request hop must leave behind.

``gray_parity.json`` was recorded from the tree *before* a request
crossed the FTM in one frame per hop (when every hop still went through
``Reference.invoke`` *and* ``Component.call`` and the message types were
frozen dataclasses).  It pins, for each of the 12 gray-matrix cells on
seeds 0 and 1 (one mission each, the spec's 200 requests):

* the mission dict ``gray._trial`` stores, ``trace_digest`` included;
* the total ``invocation_count`` over every component the mission
  built — a fused path removes frames, never hops, so it must not move.

Re-record (only from a tree whose request path is the reference)::

    PYTHONPATH=<reference>/src python -m tests.golden.gray_parity --record
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from repro.components.model import Component
from repro.eval import gray

GOLDEN_PATH = Path(__file__).with_name("gray_parity.json")

#: One mission per cell on each of these seeds.
SEEDS = (0, 1)


@contextmanager
def components_built() -> Iterator[List[Component]]:
    """Collect every :class:`Component` constructed while the block runs."""
    built: List[Component] = []
    init = Component.__init__

    def tracked_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        built.append(self)

    Component.__init__ = tracked_init
    try:
        yield built
    finally:
        Component.__init__ = init


def mission(seed: int, params) -> Dict:
    """One gray mission's stored dict plus its total invocation count."""
    with components_built() as built:
        outcome = gray._trial(seed, params)
    return {
        "outcome": outcome,
        "invocations": sum(c.invocation_count for c in built),
    }


def record() -> Dict:
    """Every (cell, seed) mission (the golden file's content)."""
    return {
        f"{trial.key}|{seed}": mission(seed, trial.params)
        for trial in gray.spec(missions=1).trials
        for seed in SEEDS
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
