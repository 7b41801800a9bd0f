"""Sharded streaming campaign tests.

The 10k-mission recipe in miniature: the mission seed sequence is split
into shard cells, each shard reduces to counts the moment it completes,
and the aggregate (with Wilson CIs) is computed from those streamed
counts alone — so the numbers must not depend on the shard size.
"""

import json

from repro import exp
from repro.eval import campaign

MISSIONS = 6
REQUESTS = 10


def _sharded(cell_size=2, missions=MISSIONS):
    return campaign.sharded_spec(
        missions=missions, base_seed=42, requests=REQUESTS,
        cell_size=cell_size,
    )


def test_sharded_spec_splits_the_same_mission_seeds():
    sharded = _sharded(cell_size=2)
    assert len(sharded.trials) == 3
    shard_seeds = [s for t in sharded.trials for s in t.seeds]
    assert shard_seeds == [42 + 101 * m for m in range(MISSIONS)]
    assert sharded.reduce is campaign._reduce_shard


def test_shard_size_does_not_change_the_aggregate():
    by_size = {
        size: campaign.generate_sharded(missions=MISSIONS, base_seed=42,
                                        requests=REQUESTS, cell_size=size)
        for size in (1, 2, MISSIONS)
    }
    assert {size: data["shards"] for size, data in by_size.items()} == {
        1: MISSIONS, 2: 3, MISSIONS: 1}
    whole = by_size[MISSIONS]
    for size in (1, 2):
        for key in ("missions", "clean_missions", "exactly_once_missions",
                    "total_crashes", "total_injected", "total_masked",
                    "total_promotions", "total_reintegrations",
                    "dirty_seeds", "masking_rate", "masking_ci95",
                    "exactly_once_rate", "exactly_once_ci95"):
            assert by_size[size][key] == whole[key], (size, key)
    assert whole["missions"] == MISSIONS
    assert campaign.shard_shape_checks(whole) == []


def test_sharded_campaign_is_deterministic_across_jobs_and_cache(tmp_path):
    store = exp.ResultStore(tmp_path)
    serial = exp.run(_sharded(), jobs=1, store=store)
    parallel = exp.run(_sharded(), jobs=4)
    cached = exp.run(_sharded(), jobs=4, store=store)
    assert cached.cached and cached.executed == 0
    dumps = [json.dumps(r.results, sort_keys=True)
             for r in (serial, parallel, cached)]
    assert dumps[0] == dumps[1] == dumps[2]


def test_store_holds_shard_counts_not_mission_dicts(tmp_path):
    # the streaming claim: what lands on disk (and in memory after a
    # shard completes) is the reduced counts, independent of shard size
    store = exp.ResultStore(tmp_path)
    spec = _sharded()
    exp.run(spec, jobs=1, store=store)
    payload = json.loads(
        store.cell_path(spec, spec.trials[0]).read_text(encoding="utf-8")
    )
    values = payload["values"]
    assert set(values) == {
        "missions", "clean", "exactly_once", "injected", "masked",
        "crashes", "promotions", "reintegrations", "dirty_seeds",
    }
    assert values["missions"] == 2


def test_render_sharded_reports_wilson_cis():
    data = campaign.generate_sharded(missions=4, base_seed=42,
                                     requests=REQUESTS, cell_size=2)
    text = campaign.render_sharded(data)
    assert "4 randomised missions in 2 shards" in text
    assert "CI95 [" in text
    assert "exactly-once rate" in text
