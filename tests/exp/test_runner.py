"""Determinism and merge-ordering tests for the parallel runner.

The acceptance bar of the experiment layer: ``run(spec, jobs=N)`` must be
byte-identical to ``run(spec, jobs=1)`` for real simulation workloads —
a reduced Table 3 and a fault-injection campaign — not just toy trials.
"""

import json

from repro import exp
from repro.eval import campaign, table3


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def echo_trial(seed, params):
    """A trivial trial: echoes its inputs (merge-ordering probe)."""
    return {"seed": seed, "cell": params["cell"]}


def test_parallel_table3_is_byte_identical_to_serial():
    spec = table3.spec(runs=3, base_seed=1, ftms=("pbr", "lfr"))
    serial = exp.run(spec, jobs=1)
    parallel = exp.run(spec, jobs=4)
    assert _dump(serial) == _dump(parallel)
    assert serial.executed == parallel.executed == spec.unit_count == 12


def test_parallel_campaign_is_byte_identical_to_serial():
    spec = campaign.sharded_spec(missions=5, base_seed=42, requests=12,
                                 cell_size=2)
    serial = exp.run(spec, jobs=1)
    parallel = exp.run(spec, jobs=4)
    assert _dump(serial) == _dump(parallel)
    # and the aggregated artifact is identical too, not just the raw cells
    assert campaign.from_shard_results(
        serial.results) == campaign.from_shard_results(parallel.results)


def test_merge_order_follows_spec_not_completion():
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"cell": i}, seeds=(3 * i, 3 * i + 1))
        for i in range(10)
    )
    spec = exp.ExperimentSpec(name="echo", trial=echo_trial, trials=trials)
    result = exp.run(spec, jobs=4)
    assert list(result.results) == [f"c{i}" for i in range(10)]
    for i in range(10):
        assert result.cell(f"c{i}") == [
            {"seed": 3 * i, "cell": i},
            {"seed": 3 * i + 1, "cell": i},
        ]


def test_runner_counts_executed_trials():
    spec = exp.ExperimentSpec(
        name="echo", trial=echo_trial,
        trials=(exp.Trial("a", {"cell": 0}, (1, 2, 3)),),
    )
    stats = exp.ExecutionStats()
    result = exp.run(spec, jobs=1, stats=stats)
    assert result.executed == 3
    assert not result.cached
    assert result.cells_executed == 1 and result.cells_cached == 0
    # the caller's stats object sees the same count
    assert stats.executed == 3


def test_results_are_json_normalised():
    # a fresh run returns exactly what a store round-trip would return
    spec = exp.ExperimentSpec(
        name="echo", trial=echo_trial,
        trials=(exp.Trial("a", {"cell": 7}, (5,)),),
    )
    result = exp.run(spec, jobs=1)
    assert result.results == json.loads(json.dumps(result.results))


def test_events_by_source_attribution_flows_to_result():
    # a campaign mission is heartbeat-dominated, but the beat clock
    # replays beats without kernel events: the per-subsystem attribution
    # harvested from closed worlds (kernel events by producer) and the
    # clock's own counters must reach both the ExperimentResult summary
    # and an aggregating ExecutionStats
    spec = campaign.sharded_spec(missions=2, base_seed=42, requests=8)
    stats = exp.ExecutionStats()
    result = exp.run(spec, jobs=1, stats=stats)
    sources = result.events_by_source
    assert set(sources) == {"heartbeat", "timer", "request", "fault"}
    assert sources["heartbeat"] > 0 and sources["request"] > 0
    assert sources["timer"] > 0
    assert result.beats_replayed > 5 * sources["heartbeat"]
    assert 0 < result.beats_materialised < sources["heartbeat"]
    assert stats.events_by_source == sources
    assert stats.beats_replayed == result.beats_replayed
    summary = result.summary()
    assert summary["events_by_source"] == sources
    assert summary["beats_replayed"] == result.beats_replayed
    assert summary["beats_materialised"] == result.beats_materialised


def test_shipped_count_lists_name_every_kernel_counter():
    # the runner owns the order of a batch's count list and reads the
    # kernel's accumulator by key: a counter added there must be listed
    from repro.exp.runner import EVENT_KEYS
    from repro.kernel import take_event_attribution

    assert tuple(take_event_attribution()) == EVENT_KEYS


def test_table3_trials_report_their_events_too():
    # Table 3 builds and closes its worlds by hand, outside run_solo:
    # their attribution is harvested all the same
    from repro.eval import table3

    result = exp.run(table3.spec(runs=1, ftms=["pbr", "lfr"]), jobs=1,
                     store=None)
    assert result.events_by_source["timer"] > 0
    assert result.beats_replayed > 0


def test_events_by_source_resets_between_runs():
    # the process-wide accumulator is taken per dispatch: two identical
    # runs report identical (not cumulative) attribution
    spec = campaign.sharded_spec(missions=1, base_seed=7, requests=8)
    first = exp.run(spec, jobs=1).events_by_source
    second = exp.run(spec, jobs=1).events_by_source
    assert first == second
    assert first["heartbeat"] > 0
