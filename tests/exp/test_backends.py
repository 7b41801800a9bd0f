"""Executor-backend equivalence and persistent-pool behavior.

The backend contract: *where* units execute — inline, over the
persistent local pool, or on remote workers — is pure execution
strategy.  Results, and the bytes the store writes, are identical
across every backend.
"""

import gc
import hashlib
import json

import pytest

from repro import exp
from repro.eval import campaign, table3
from repro.exp import runner
from tests.exp.test_distributed import _start_worker, _stop_worker


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def _store_bytes(root):
    """SHA-256 of every cell file under ``root`` (manifests excluded:
    they record execution metadata like jobs/backend by design)."""
    digests = {}
    for path in sorted(root.rglob("*.json")):
        if path.name == "manifest.json":
            continue
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def echo_trial(seed, params):
    return {"seed": seed, "cell": params["cell"]}


def _echo_spec(cells=6, runs=2):
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"cell": i},
                  seeds=tuple(range(runs * i, runs * i + runs)))
        for i in range(cells)
    )
    return exp.ExperimentSpec(name="echo-backends", trial=echo_trial,
                              trials=trials)


def test_serial_and_local_backends_are_byte_identical():
    spec = table3.spec(runs=2, base_seed=11, ftms=("pbr", "lfr"))
    serial = exp.run(spec, jobs=1, backend="serial")
    local = exp.run(spec, jobs=3, backend="local", batch=2)
    assert _dump(serial) == _dump(local)
    assert serial.backend == "serial"
    assert local.backend == "local"


def test_backend_stores_are_byte_identical(tmp_path):
    """Wherever the units run — split across pool tasks, or shipped in
    batches to remote workers — results and store bytes agree with the
    serial reference, with and without a ``reduce`` hook."""
    workers = [_start_worker() for _ in range(2)]
    addresses = [address for _process, address in workers]
    specs = {
        "reduced": campaign.sharded_spec(missions=6, base_seed=77,
                                         requests=8, cell_size=3),
        "raw": table3.spec(runs=3, base_seed=11, ftms=("pbr", "lfr")),
    }
    try:
        for name, spec in specs.items():
            assert (spec.reduce is not None) == (name == "reduced")
            root = tmp_path / name
            serial = exp.run(spec, jobs=1, backend="serial",
                             store=exp.ResultStore(root / "serial"))
            serial_bytes = _store_bytes(root / "serial")
            assert serial_bytes  # non-empty: the cells really were written
            # 3-unit cells in 2-unit batches: cells straddle pool tasks
            # and remote batches alike
            strategies = {
                "local": dict(jobs=2, backend="local", batch=2),
                "remote": dict(backend=exp.RemoteBackend(addresses), batch=2),
            }
            for label, kwargs in strategies.items():
                result = exp.run(spec, store=exp.ResultStore(root / label),
                                 **kwargs)
                assert _dump(result) == _dump(serial), (name, label)
                assert _store_bytes(root / label) == serial_bytes, (name, label)
            # execution strategy is no part of cell identity: the pool
            # backend is served whole from the store the serial one wrote
            warm = exp.run(spec, jobs=2, backend="local",
                           store=exp.ResultStore(root / "serial"))
            assert warm.executed == 0
            assert _dump(warm) == _dump(serial)
    finally:
        for process, _address in workers:
            _stop_worker(process)


def test_backend_instance_can_be_passed_directly():
    spec = _echo_spec()
    result = exp.run(spec, backend=exp.SerialBackend())
    assert result.backend == "serial"
    assert result.executed == spec.unit_count


def test_unknown_backend_name_is_rejected():
    with pytest.raises(exp.ExperimentError, match="unknown backend"):
        exp.run(_echo_spec(), backend="carrier-pigeon")


def test_remote_backend_requires_worker_addresses():
    with pytest.raises(exp.ExperimentError, match="workers"):
        exp.run(_echo_spec(), backend="remote")


def test_workers_argument_implies_remote_backend():
    # a bad address fails in address parsing — proving backend selection
    with pytest.raises(exp.DistributedError, match="host:port"):
        exp.run(_echo_spec(), workers=["not-an-address"])


def test_local_pool_persists_across_runs():
    exp.shutdown_local_pool()
    try:
        spec_a = _echo_spec(cells=8)
        spec_b = table3.spec(runs=2, base_seed=5, ftms=("pbr",))
        exp.run(spec_a, jobs=2, backend="local", batch=1)
        first_pool = runner._LOCAL_POOL
        assert first_pool is not None
        exp.run(spec_b, jobs=2, backend="local", batch=1)
        assert runner._LOCAL_POOL is first_pool
    finally:
        exp.shutdown_local_pool()


def test_local_pool_resizes_on_different_worker_count():
    exp.shutdown_local_pool()
    try:
        spec = _echo_spec(cells=8)
        exp.run(spec, jobs=2, backend="local", batch=1)
        first_pool = runner._LOCAL_POOL
        exp.run(spec, jobs=3, backend="local", batch=1)
        assert runner._LOCAL_POOL is not first_pool
        assert runner._LOCAL_POOL_PROCESSES == 3
    finally:
        exp.shutdown_local_pool()


def test_plan_with_one_unit_left_for_a_pool_runs_inline():
    # the parent runs the first unit itself; one more is no work for a pool
    exp.shutdown_local_pool()
    result = exp.run(_echo_spec(cells=2, runs=1), jobs=2, backend="local")
    assert result.executed == 2 and result.backend == "local"
    assert runner._LOCAL_POOL is None


def failing_trial(seed, params):
    raise RuntimeError(f"unit {seed} fails")


def test_serial_unit_that_raises_restores_the_collector():
    spec = exp.ExperimentSpec(
        name="failing", trial=failing_trial,
        trials=(exp.Trial(key="c0", params={}, seeds=(0,)),),
    )
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="unit 0 fails"):
        exp.run(spec, jobs=1, backend="serial")
    assert gc.isenabled()


class _Knot:
    """One reference cycle dragging fifty collector-tracked lists."""

    def __init__(self):
        self.me = self
        self.ballast = [[] for _ in range(50)]


def knot_trial(seed, params):
    _Knot()  # unreachable once built: only the cyclic collector frees it
    sample = len(gc.get_objects()) if seed % 10 == 0 else None
    return {"paused": not gc.isenabled(), "objects": sample}


def test_serial_backend_pauses_the_collector_per_unit_not_per_run():
    """Each unit runs with the collector paused; it runs again between
    units, so 200 leaked cycles never pile up (they would add ~10 000
    tracked objects if the pause spanned the run)."""
    trials = tuple(
        exp.Trial(key=f"c{i}", params={}, seeds=tuple(range(10 * i, 10 * i + 10)))
        for i in range(20)
    )
    spec = exp.ExperimentSpec(name="knots", trial=knot_trial, trials=trials)
    result = exp.run(spec, jobs=1, backend="serial")
    units = [unit for cell in result.results.values() for unit in cell]
    assert len(units) == 200 and all(unit["paused"] for unit in units)
    samples = [unit["objects"] for unit in units if unit["objects"] is not None]
    assert len(samples) == 20
    # each sample also holds up to one young generation of garbage, so the
    # level is the peak of the first 100 units, not the smallest sample
    assert max(samples[10:]) <= 1.01 * max(samples[:10]), samples


def test_function_ref_roundtrip():
    ref = runner.function_ref(echo_trial)
    assert ref == f"{__name__}:echo_trial"
    assert runner.resolve_function_ref(ref) is echo_trial


def test_execution_plan_batches_preserve_unit_order():
    spec = _echo_spec(cells=5, runs=1)
    units = [(i, i * 10, {"cell": i}) for i in range(5)]
    plan = runner.ExecutionPlan(spec=spec, units=units, worker_count=2,
                                batch_size=2)
    batches = plan.batches()
    assert [len(b) for b in batches] == [2, 2, 1]
    assert [u[0] for b in batches for u in b] == list(range(5))


# -- cache_state coherence (the ExperimentResult.cached fix) ----------------


def test_cache_state_disabled_without_store():
    result = exp.run(_echo_spec())
    assert result.cache_state == "disabled"
    assert not result.cached


def test_cache_state_cold_then_full(tmp_path):
    store = exp.ResultStore(tmp_path)
    spec = _echo_spec(cells=3)
    first = exp.run(spec, store=store)
    assert first.cache_state == "cold"
    assert not first.cached
    assert first.cells_executed == 3
    second = exp.run(spec, store=store)
    assert second.cache_state == "full"
    assert second.cached
    assert second.cells_cached == 3
    assert second.executed == 0


def test_cache_state_partial_mixes_coherently(tmp_path):
    store = exp.ResultStore(tmp_path)
    small = _echo_spec(cells=2)
    exp.run(small, store=store)
    grown = _echo_spec(cells=4)  # two cells cached, two missing
    mixed = exp.run(grown, store=store)
    assert mixed.cache_state == "partial"
    assert not mixed.cached  # partially-cached runs must not claim "cached"
    assert mixed.cells_cached == 2
    assert mixed.cells_executed == 2
    summary = mixed.summary()
    assert summary["cache_state"] == "partial"
    assert summary["cells_cached"] == 2
    assert summary["cells_executed"] == 2
    assert summary["backend"] in exp.BACKENDS
