"""Fleet campaign: determinism across repeats and executor backends.

The churn-determinism contract: a fleet mission — topology generation,
placement, open-loop arrivals, churn outages, shared-R transitions — is
fully determined by its seed.  Same seed ⇒ identical outcome *and*
identical event trace (compared via the mission's ``trace_digest``),
and the store bytes are identical however the missions execute: serial,
co-scheduled, or over the persistent local pool.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro import exp
from repro.eval import fleet_campaign


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def _store_bytes(root):
    """SHA-256 of every cell file (manifests excluded: they record
    execution metadata like jobs/backend/elapsed by design)."""
    digests = {}
    for path in sorted(root.rglob("*.json")):
        if path.name == "manifest.json":
            continue
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def _small_spec():
    return fleet_campaign.spec(
        missions=1, base_seed=9000, hosts=8, apps=2,
        placements=("round-robin", "greedy"), churn_rates=(0, 2),
        duration_ms=4_000.0,
    )


def test_same_seed_same_mission_including_trace():
    first = fleet_campaign.run_fleet_mission(9000, hosts=8, apps=2, churn=2,
                                             duration_ms=4_000.0)
    again = fleet_campaign.run_fleet_mission(9000, hosts=8, apps=2, churn=2,
                                             duration_ms=4_000.0)
    other = fleet_campaign.run_fleet_mission(9101, hosts=8, apps=2, churn=2,
                                             duration_ms=4_000.0)
    assert first == again
    assert first.trace_digest == again.trace_digest
    assert first.trace_digest != other.trace_digest
    assert first.sent > 0
    assert first.node_downs > 0


def test_campaign_store_is_byte_identical_across_repeat_runs(tmp_path):
    spec = _small_spec()
    exp.run(spec, jobs=1, backend="serial",
            store=exp.ResultStore(tmp_path / "one"))
    exp.run(spec, jobs=1, backend="serial",
            store=exp.ResultStore(tmp_path / "two"), fresh=True)
    first = _store_bytes(tmp_path / "one")
    assert first == _store_bytes(tmp_path / "two")
    assert first  # the cells really were written


def test_campaign_is_byte_identical_across_backends(tmp_path):
    spec = _small_spec()
    serial = exp.run(spec, jobs=1, backend="serial",
                     store=exp.ResultStore(tmp_path / "serial"))
    local = exp.run(spec, jobs=2, backend="local",
                    store=exp.ResultStore(tmp_path / "local"))
    try:
        assert _dump(serial) == _dump(local)
        serial_bytes = _store_bytes(tmp_path / "serial")
        assert serial_bytes == _store_bytes(tmp_path / "local")
        # the digests inside the cells certify event-order identity too
        for cell in serial.results.values():
            assert cell["trace_digests"]
    finally:
        exp.shutdown_local_pool()


def test_campaign_aggregate_shape_and_checks():
    spec = _small_spec()
    result = exp.run(spec, jobs=1, backend="serial")
    data = fleet_campaign.from_results(result.results)
    assert data["missions"] == len(spec.trials)
    assert fleet_campaign.shape_checks(data) == []
    rendered = fleet_campaign.render(data)
    assert "Fleet campaign" in rendered
    assert "greedy-churn2" in rendered


def test_campaign_contains_a_contention_transition():
    # the acceptance scenario at campaign scale: at least one cell must
    # show a transition whose cause was another pair's resource use
    spec = _small_spec()
    result = exp.run(spec, jobs=1, backend="serial")
    data = fleet_campaign.from_results(result.results)
    assert data["contention_decisions"] >= 1
    assert data["transitions"] >= 1


# Recorded on the tree before the fleet manager's rule moved into
# `core.transition_graph.decide`: what the manager summarised and the
# full event trace of missions that between them take a contention-
# mandatory, a limp-mandatory and a queued-possible decision.
_RECORDED = {
    "contention": (
        dict(seed=9000, placement="greedy", churn=0, limp_fraction=0.0),
        dict(transitions=2, contention_decisions=2, limp_decisions=0,
             pending_proposals=1, trace_digest="ad53933686d0b720f8f459c9dad34878"),
    ),
    "limp": (
        dict(seed=9000, placement="round-robin", churn=4, limp_fraction=1.0),
        dict(transitions=2, contention_decisions=0, limp_decisions=2,
             pending_proposals=1, trace_digest="6b3d59e9d7bb64b3ce6f18031daa3e55"),
    ),
    "contention-and-limp": (
        dict(seed=9000, placement="greedy", churn=4, limp_fraction=1.0),
        dict(transitions=2, contention_decisions=2, limp_decisions=2,
             pending_proposals=2, trace_digest="fd4f97f1d996d3dd2e8580234c86ef49"),
    ),
    "contention-under-churn": (
        dict(seed=9202, placement="round-robin", churn=2, limp_fraction=0.0),
        dict(transitions=2, contention_decisions=2, limp_decisions=0,
             pending_proposals=1, trace_digest="8df1778888f94344c759c5a908aa244c"),
    ),
}


@pytest.mark.parametrize("name", _RECORDED)
def test_fleet_decisions_equal_the_recorded_ones(name):
    mission, recorded = _RECORDED[name]
    outcome = asdict(fleet_campaign.run_fleet_mission(
        hosts=8, apps=2, duration_ms=4_000.0, **mission
    ))
    assert {key: outcome[key] for key in recorded} == recorded
    assert outcome["failed_transitions"] == 0
    assert outcome["final_ftms"] == {"app00": "lfr", "app01": "lfr+tr"}
