"""Streaming pipeline tests: partial invalidation, resume, reduce, batching.

The cell-granular contract: editing one cell of a many-cell spec
re-executes exactly that cell's units; a killed run resumes from the
cells it already persisted; a ``reduce`` hook streams cells down to
summaries; and none of it perturbs the byte-identity of serial,
parallel, batched, partially-cached and resumed runs.
"""

import json
import os

import pytest

from repro import exp
from repro.exp.errors import ResultTypeError


def echo_trial(seed, params):
    """A trivial trial: echoes its inputs."""
    return {"seed": seed, "cell": params["cell"]}


def fragile_trial(seed, params):
    """Echo trial that dies on late cells while the sentinel file exists."""
    if params["index"] >= 3 and os.path.exists(params["sentinel"]):
        raise RuntimeError("simulated kill")
    return {"seed": seed, "index": params["index"]}


def count_reduce(values):
    """Collapse a cell to counts (the streaming-campaign shape)."""
    return {
        "n": len(values),
        "seed_sum": sum(v["seed"] for v in values),
    }


def other_reduce(values):
    """A second reduction, for invalidation tests."""
    return {"n": len(values)}


def _table3_shaped_spec(edit_cell=None):
    """A 36-cell echo spec shaped like Table 3 (6 deploys + 30 transitions)."""
    names = [f"f{i}" for i in range(6)]
    keys = [f"deploy:{n}" for n in names] + [
        f"{a}->{b}" for a in names for b in names if a != b
    ]
    trials = []
    for key in keys:
        params = {"cell": key}
        if key == edit_cell:
            params["edited"] = True
        trials.append(exp.Trial(key=key, params=params,
                                seeds=exp.derive_seeds(1000, key, 3)))
    return exp.ExperimentSpec(name="t3-shape", trial=echo_trial,
                              trials=tuple(trials))


# -- partial invalidation ------------------------------------------------------


def test_one_cell_edit_reexecutes_exactly_that_cells_units(tmp_path):
    store = exp.ResultStore(tmp_path)
    baseline = _table3_shaped_spec()
    assert len(baseline.trials) == 36
    first = exp.run(baseline, jobs=1, store=store)
    assert first.executed == 36 * 3

    edited = _table3_shaped_spec(edit_cell="f1->f2")
    second = exp.run(edited, jobs=1, store=store)
    assert second.executed == 3  # executed == runs of the edited cell
    assert second.cells_executed == 1
    assert second.cells_cached == 35
    # untouched cells byte-identical to the first run
    for key in (t.key for t in baseline.trials):
        if key != "f1->f2":
            assert second.results[key] == first.results[key]


def test_partial_cache_hit_is_byte_identical_to_cold_runs(tmp_path):
    store = exp.ResultStore(tmp_path)
    edited = _table3_shaped_spec(edit_cell="f0->f5")
    # warm 35 of 36 cells via the baseline spec
    exp.run(_table3_shaped_spec(), jobs=1, store=store)

    cold_serial = exp.run(edited, jobs=1)
    cold_parallel = exp.run(edited, jobs=4)
    partial = exp.run(edited, jobs=4, store=store)
    assert partial.executed == 3
    dumps = [json.dumps(r.results, sort_keys=True)
             for r in (cold_serial, cold_parallel, partial)]
    assert dumps[0] == dumps[1] == dumps[2]


# -- kill and resume -----------------------------------------------------------


def test_killed_run_resumes_from_persisted_cells(tmp_path):
    store = exp.ResultStore(tmp_path)
    sentinel = tmp_path / "kill-switch"
    sentinel.write_text("armed", encoding="utf-8")
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"index": i, "sentinel": str(sentinel)},
                  seeds=(10 * i, 10 * i + 1))
        for i in range(6)
    )
    spec = exp.ExperimentSpec(name="resume", trial=fragile_trial,
                              trials=trials)

    with pytest.raises(RuntimeError):
        exp.run(spec, jobs=1, store=store)
    # serial execution proceeds in spec order: cells 0-2 were persisted
    persisted = exp.ResultStore(tmp_path).load_cells(spec)
    assert set(persisted) == {"c0", "c1", "c2"}

    sentinel.unlink()
    resumed = exp.run(spec, jobs=1, store=store)
    assert resumed.executed == 6  # three remaining cells x two runs
    assert resumed.cells_cached == 3

    clean = exp.run(spec, jobs=1)
    assert json.dumps(resumed.results, sort_keys=True) == json.dumps(
        clean.results, sort_keys=True
    )
    # the resumed run finalised the manifest, so the next run is a full hit
    assert exp.run(spec, jobs=4, store=store).cached


# -- the reduce hook -----------------------------------------------------------


def _reduced_spec(reduce_fn=count_reduce, cells=4, runs=5):
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"cell": f"c{i}"},
                  seeds=tuple(range(100 * i, 100 * i + runs)))
        for i in range(cells)
    )
    return exp.ExperimentSpec(name="reduced", trial=echo_trial,
                              trials=trials, reduce=reduce_fn)


def test_reduce_collapses_cells_to_summaries():
    result = exp.run(_reduced_spec(), jobs=1)
    assert result.results["c0"] == {"n": 5, "seed_sum": sum(range(5))}
    assert result.results["c2"] == {"n": 5,
                                    "seed_sum": sum(range(200, 205))}


def test_reduce_is_deterministic_across_jobs_batches_and_cache(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _reduced_spec()
    serial = exp.run(spec, jobs=1, store=store)
    parallel = exp.run(_reduced_spec(), jobs=4, batch=2)
    cached = exp.run(spec, jobs=4, store=store)
    assert cached.cached and cached.executed == 0
    dumps = [json.dumps(r.results, sort_keys=True)
             for r in (serial, parallel, cached)]
    assert dumps[0] == dumps[1] == dumps[2]
    # the store holds the reduced summary, not the raw per-run values
    payload = json.loads(
        store.cell_path(spec, spec.cell("c0")).read_text(encoding="utf-8")
    )
    assert payload["values"] == {"n": 5, "seed_sum": 10}


def test_changing_the_reduce_fn_invalidates_stored_cells(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_reduced_spec(count_reduce), jobs=1, store=store)
    swapped = exp.run(_reduced_spec(other_reduce), jobs=1, store=store)
    assert not swapped.cached and swapped.executed == 20
    assert swapped.results["c0"] == {"n": 5}


def test_reduce_result_must_be_json_safe():
    with pytest.raises(ResultTypeError):
        exp.run(
            exp.ExperimentSpec(
                name="bad-reduce", trial=echo_trial,
                trials=(exp.Trial("a", {"cell": "a"}, (1,)),),
                reduce=bad_reduce,
            ),
            jobs=1,
        )


def bad_reduce(values):
    """Returns something JSON cannot carry."""
    return {"values": object()}


# -- batching ------------------------------------------------------------------


def test_batched_dispatch_is_byte_identical_to_serial():
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"cell": f"c{i}"},
                  seeds=tuple(range(7 * i, 7 * i + 7)))
        for i in range(9)
    )
    spec = exp.ExperimentSpec(name="batchy", trial=echo_trial, trials=trials)
    serial = exp.run(spec, jobs=1)
    for batch in (1, 4, 63, None):
        parallel = exp.run(spec, jobs=4, batch=batch)
        assert json.dumps(parallel.results, sort_keys=True) == json.dumps(
            serial.results, sort_keys=True
        )


def test_default_batch_is_bounded():
    # amortises dispatch without letting per-task memory scale with units
    assert exp.default_batch(10, 4) == 1
    assert exp.default_batch(2000, 4) == 32
    assert exp.default_batch(1_000_000, 8) == 32
    assert exp.default_batch(0, 1) == 1


# -- execution stats -----------------------------------------------------------


def test_stats_thread_through_runs(tmp_path):
    store = exp.ResultStore(tmp_path)
    stats = exp.ExecutionStats()
    spec = _table3_shaped_spec()
    exp.run(spec, jobs=1, store=store, stats=stats)
    assert stats.executed == 108
    assert stats.cells_executed == 36
    assert stats.cells_cached == 0
    exp.run(spec, jobs=1, store=store, stats=stats)
    assert stats.executed == 108  # warm cache adds nothing
    assert stats.cells_cached == 36
