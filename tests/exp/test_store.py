"""Result-store tests: cell layout, cache hits, GC."""

import collections
import inspect
import json

from repro import exp
from repro.eval import figure9
from repro.exp import spec as spec_mod
from repro.exp.store import MANIFEST_NAME


def echo_trial(seed, params):
    """A trivial trial: echoes its inputs."""
    return {"seed": seed, "tag": params.get("tag")}


def budget_trial(seed, params):
    """A trial only the call-budget test hashes (its memo entry is its own)."""
    return {"seed": seed}


def budget_reduce(values):
    """The matching reduce: a count."""
    return {"n": len(values)}


def _spec(**overrides):
    base = dict(
        name="echo",
        trial=echo_trial,
        trials=(
            exp.Trial("a", {"tag": "x"}, (1, 2)),
            exp.Trial("b", {"tag": "y"}, (3,)),
        ),
    )
    base.update(overrides)
    return exp.ExperimentSpec(**base)


def test_store_round_trip_serves_identical_results(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    first = exp.run(spec, jobs=1, store=store)
    second = exp.run(spec, jobs=4, store=store)
    assert not first.cached and first.executed == 3
    assert second.cached and second.executed == 0
    assert second.cells_cached == 2
    assert json.dumps(first.results) == json.dumps(second.results)


def test_store_layout_is_one_file_per_cell_plus_manifest(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    spec_dir = store.spec_dir(spec)
    assert (spec_dir / MANIFEST_NAME).is_file()
    for trial in spec.trials:
        path = store.cell_path(spec, trial)
        assert path.parent == spec_dir
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["cell_hash"] == exp.cell_hash(spec, trial)
        assert len(payload["values"]) == trial.runs
    manifest = json.loads((spec_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["hash"] == exp.spec_hash(spec)
    assert set(manifest["cells"]) == {"a", "b"}


def test_store_round_trip_on_a_real_simulation(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = figure9.spec(runs=2)
    fresh = exp.run(spec, jobs=1, store=store)
    cached = exp.run(spec, jobs=1, store=store)
    assert cached.cached and cached.executed == 0
    assert figure9.from_results(fresh.results) == figure9.from_results(
        cached.results
    )


def test_spec_change_misses_the_cache(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    for changed in (
        _spec(version="3"),
        _spec(trials=(exp.Trial("a", {"tag": "x"}, (9, 2)), exp.Trial("b", {"tag": "y"}, (3,)))),
    ):
        result = exp.run(changed, jobs=1, store=store)
        assert not result.cached


def test_one_cell_edit_recomputes_one_cell(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    edited = _spec(
        trials=(exp.Trial("a", {"tag": "x"}, (1, 2)), exp.Trial("b", {"tag": "z"}, (3,)))
    )
    result = exp.run(edited, jobs=1, store=store)
    assert result.executed == 1  # only cell b's single run
    assert result.cells_cached == 1 and result.cells_executed == 1


def test_clear_empties_the_store(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    assert store.manifest_path(spec).exists()
    # 2 cell files + 1 manifest
    assert store.clear() == 3
    assert store.entries() == []
    assert store.load_cells(spec) == {}
    assert store.clear() == 0


def test_fresh_forces_recomputation(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    forced = exp.run(spec, jobs=1, store=store, fresh=True)
    assert not forced.cached and forced.executed == 3


def test_corrupt_cell_is_recomputed_alone(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    store.cell_path(spec, spec.cell("a")).write_text("{not json",
                                                     encoding="utf-8")
    result = exp.run(spec, jobs=1, store=store)
    assert not result.cached
    assert result.executed == 2  # cell a only; b still served
    assert result.cells_cached == 1
    # and the entry was rewritten cleanly
    assert exp.run(spec, jobs=1, store=store).cached


def test_cell_with_wrong_shape_is_ignored(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    path = store.cell_path(spec, spec.cell("a"))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["values"] = payload["values"][:1]  # one run missing
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert store.load_cell(spec, spec.cell("a")) is None
    assert store.load_cells(spec) == {"b": [{"seed": 3, "tag": "y"}]}


def test_gc_removes_orphans_but_keeps_resumable_cells(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, store=store)
    edited = _spec(
        trials=(exp.Trial("a", {"tag": "x"}, (1, 2)), exp.Trial("b", {"tag": "z"}, (3,)))
    )
    exp.run(edited, jobs=1, store=store)  # old cell b becomes an orphan
    assert store.gc() == 1
    # both current specs' latest cells survive gc where still referenced
    assert exp.run(edited, jobs=1, store=store).cached
    # a spec dir without a manifest (killed run) is never collected
    other = _spec(name="killed")
    store.save_cell(other, other.cell("a"), [{"seed": 1}, {"seed": 2}])
    assert store.gc() == 0
    assert store.cell_path(other, other.cell("a")).is_file()


def test_entries_digest(tmp_path):
    store = exp.ResultStore(tmp_path)
    exp.run(_spec(), jobs=1, store=store)
    (entry,) = store.entries()
    assert entry["spec"] == "echo"
    assert entry["cells"] == 2
    assert entry["hash"] == exp.spec_hash(_spec())
    assert entry["format"] == "cells"


def test_identity_call_budget_cold_run_then_replay(tmp_path, monkeypatch):
    sources = collections.Counter()
    real_getsource = inspect.getsource

    def counting_getsource(fn):
        sources[fn] += 1
        return real_getsource(fn)

    hashes = collections.Counter()
    real_cell_hash = spec_mod.cell_hash

    def counting_cell_hash(spec, trial):
        hashes[trial.key] += 1
        return real_cell_hash(spec, trial)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    monkeypatch.setattr(spec_mod, "cell_hash", counting_cell_hash)
    spec = exp.ExperimentSpec(
        name="budget", trial=budget_trial, reduce=budget_reduce,
        trials=tuple(exp.Trial(f"c{i:02d}", {"i": i}, (i, i + 100))
                     for i in range(20)),
    )
    store = exp.ResultStore(tmp_path)

    # write path: one address per save_cell, one per write_manifest
    cold = exp.run(spec, jobs=1, backend="serial", store=store, fresh=True)
    assert cold.cache_state == "cold" and cold.executed == 40
    assert set(hashes) == {t.key for t in spec.trials}
    assert max(hashes.values()) <= 2, hashes

    # read path: one address per load_cell; a full hit leaves the
    # manifest alone, so nothing else asks for an address
    hashes.clear()
    replay = exp.run(spec, jobs=1, backend="serial", store=store)
    assert replay.cache_state == "full" and replay.executed == 0
    assert max(hashes.values()) <= 1, hashes

    # the source of each function was tokenised at most once, process-wide
    assert set(sources) <= {budget_trial, budget_reduce}
    assert all(count <= 1 for count in sources.values()), sources


def test_replay_leaves_the_computing_runs_manifest_alone(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _spec()
    exp.run(spec, jobs=1, backend="serial", store=store)
    manifest = store.manifest_path(spec)
    cold_bytes = manifest.read_bytes()
    assert json.loads(cold_bytes)["meta"]["backend"] == "serial"

    # a replay records nothing new: other jobs/backend, same bytes
    replay = exp.run(spec, jobs=3, backend="local", store=store)
    assert replay.cache_state == "full"
    assert manifest.read_bytes() == cold_bytes

    # missing, torn, stale (another spec's hash) or partial: rewritten
    whole = json.loads(cold_bytes)
    stale = dict(whole, hash="0" * 64)
    partial = dict(whole, cells={"a": whole["cells"]["a"]})
    for damage in (None, cold_bytes[: len(cold_bytes) // 2],
                   json.dumps(stale).encode(), json.dumps(partial).encode()):
        if damage is None:
            manifest.unlink()
        else:
            manifest.write_bytes(damage)
        assert exp.run(spec, jobs=3, backend="local", store=store).cached
        repaired = json.loads(manifest.read_text(encoding="utf-8"))
        assert repaired["hash"] == exp.spec_hash(spec)
        assert set(repaired["cells"]) == {"a", "b"}
        assert repaired["meta"]["backend"] == "local"
