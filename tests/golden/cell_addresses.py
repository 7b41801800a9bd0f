"""Cell-address golden: the store addresses old stores were written under.

``cell_addresses.json`` was recorded from the tree *before* content
identities were memoised (``inspect.getsource`` on every ``cell_hash``
call).  A cell file's name and ``cell_hash`` field are its address, so
these hashes reproducing is the proof that a store written by that tree
still replays as a full hit.

The hashes cover the trial/reduce *source* of each spec: re-record when
such a function is edited on purpose (old stores then miss by design),
and only from a tree whose addressing is the reference::

    PYTHONPATH=<reference>/src python -m tests.golden.cell_addresses --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro import exp
from repro.eval import campaign, gray, table3, transition_matrix

GOLDEN_PATH = Path(__file__).with_name("cell_addresses.json")

#: spec label -> builder (sizes are the gated benchmark's smoke sizes)
SPECS: Dict[str, Callable[[], exp.ExperimentSpec]] = {
    "campaign-sharded": lambda: campaign.sharded_spec(
        missions=18, base_seed=5000, requests=30, cell_size=3),
    "gray-matrix": gray.spec,
    "table3": lambda: table3.spec(runs=2),
    "transition-matrix-smoke": lambda: transition_matrix.spec(smoke=True),
}


def addresses(spec: exp.ExperimentSpec) -> Dict:
    """``spec_hash`` plus every cell's ``cell_hash``, keyed by cell key."""
    return {
        "spec_hash": exp.spec_hash(spec),
        "cells": {t.key: exp.cell_hash(spec, t) for t in spec.trials},
    }


def record() -> Dict:
    """The addresses of every golden spec (the golden file's content)."""
    return {label: addresses(build()) for label, build in SPECS.items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
