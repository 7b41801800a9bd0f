"""Arena-reused worlds must produce byte-identical stores everywhere.

Every eval builder leases its world through the process arena (build
once, snapshot, reset, rerun).  These tests pin the product-level
contract on each campaign family: the store produced with reuse on —
first lease (miss) and re-lease (hit) — is byte-for-byte the store
produced by fresh per-mission construction.
Because every mission outcome embeds a ``trace_digest`` (or full trace
counts), byte-identity certifies event-order identity, not just equal
summaries.
"""

import json

import pytest

from repro import exp
from repro.eval import campaign, fleet_campaign, gray, transition_matrix
from repro.kernel import (
    clear_world_arena,
    set_world_reuse,
    world_arena_stats,
)


@pytest.fixture(autouse=True)
def _isolated_arena():
    set_world_reuse(True)
    clear_world_arena()
    yield
    set_world_reuse(True)
    clear_world_arena()


def _store_json(spec, **kwargs):
    result = exp.run(spec, **kwargs)
    return json.dumps(result.results, sort_keys=True)


def _assert_reuse_identical(make_spec):
    set_world_reuse(False)
    clear_world_arena()
    fresh = _store_json(make_spec(), jobs=1)

    set_world_reuse(True)
    clear_world_arena()
    reuse_serial = _store_json(make_spec(), jobs=1)
    stats = world_arena_stats()
    assert stats["hits"] > 0, "the arena never re-leased a world"
    reuse_again = _store_json(make_spec(), jobs=1)  # every lease a hit

    assert reuse_serial == fresh
    assert reuse_again == fresh


def test_campaign_reuse_byte_identical():
    _assert_reuse_identical(
        lambda: campaign.sharded_spec(
            missions=8, base_seed=4100, requests=6, cell_size=4
        )
    )


def test_gray_matrix_reuse_byte_identical():
    _assert_reuse_identical(lambda: gray.spec(missions=4, base_seed=4200))


def test_transition_matrix_reuse_byte_identical():
    _assert_reuse_identical(
        lambda: transition_matrix.spec(runs=1, base_seed=4300, requests=6)
    )


def test_fleet_campaign_reuse_byte_identical():
    _assert_reuse_identical(
        lambda: fleet_campaign.spec(
            missions=2, base_seed=4400, hosts=6, apps=2,
            placements=("round-robin",), churn_rates=(0, 2),
            duration_ms=3_000.0,
        )
    )


def test_campaign_reuse_identical_across_backends():
    """Serial and the persistent local pool drain the same lease path;
    their stores must match the fresh serial store."""

    def make_spec():
        return campaign.sharded_spec(
            missions=8, base_seed=4500, requests=6, cell_size=4
        )

    set_world_reuse(False)
    fresh = _store_json(make_spec(), jobs=1)
    set_world_reuse(True)
    clear_world_arena()
    try:
        local = _store_json(make_spec(), jobs=2, backend="local", batch=2)
    finally:
        exp.shutdown_local_pool()
    assert local == fresh
