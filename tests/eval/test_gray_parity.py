"""The gray matrix against ``tests/golden/gray_parity.json``.

Every request hop of a gray mission must leave the same trace (digest
in the stored mission dict) and the same number of component
invocations as the recorded reference tree: a faster hop removes
frames, never hops.
"""

import json

import pytest

from repro.eval import gray
from tests.golden import gray_parity

GOLDEN = json.loads(gray_parity.GOLDEN_PATH.read_text())

CELLS = {trial.key: trial.params for trial in gray.spec(missions=1).trials}


def test_golden_covers_every_cell_and_seed():
    assert sorted(GOLDEN) == sorted(
        f"{key}|{seed}" for key in CELLS for seed in gray_parity.SEEDS
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_gray_mission_matches_golden(name):
    key, seed = name.rsplit("|", 1)
    assert gray_parity.mission(int(seed), CELLS[key]) == GOLDEN[name]
