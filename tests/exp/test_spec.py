"""Unit tests for experiment specs: seed derivation, hashing, validation."""

import functools
import hashlib
import importlib
import json
import shutil
import sys
import zlib

import pytest

from repro import exp
from repro.eval import campaign, table3
from repro.exp import spec as spec_mod
from repro.exp.errors import SpecError


def _echo(seed, params):
    """Module-level trial used by spec tests."""
    return {"seed": seed, **dict(params)}


def _sum_reduce(values):
    """Module-level reduce used by spec tests."""
    return {"n": len(values)}


def _spec(**overrides):
    base = dict(
        name="t",
        trial=_echo,
        trials=(exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 2}, (3,))),
    )
    base.update(overrides)
    return exp.ExperimentSpec(**base)


# -- seed derivation -----------------------------------------------------------


def test_derive_seed_matches_documented_formula():
    mix = int.from_bytes(
        hashlib.blake2b(b"deploy:pbr\x1f2", digest_size=8).digest(), "big"
    )
    assert exp.derive_seed(1000, "deploy:pbr", 2) == 1000 + mix


def test_derive_seeds_stable_and_distinct():
    seeds = exp.derive_seeds(7, "cell", 5)
    assert seeds == exp.derive_seeds(7, "cell", 5)
    assert len(set(seeds)) == 5
    assert seeds != exp.derive_seeds(7, "other-cell", 5)
    assert seeds != exp.derive_seeds(8, "cell", 5)


def test_derive_seeds_prefix_property():
    # raising the run count extends the seed tuple without moving old seeds
    assert exp.derive_seeds(7, "cell", 3) == exp.derive_seeds(7, "cell", 5)[:3]


def _old_derive_seed(base_seed, key, run):
    """The pre-64-bit derivation (collision space of 100 000)."""
    return base_seed + (zlib.crc32(key.encode("utf-8")) + 37 * run) % 100_000


def test_derive_seed_collision_regression():
    # the old % 100_000 folding made distinct (key, run) pairs share seeds
    # across cells; find such a pair and assert the 64-bit mix splits it
    keys = [f"deploy:{k}" for k in "abcdefghij"] + [f"c{i}->c{j}"
                                                   for i in range(8)
                                                   for j in range(8)]
    seen = {}
    collision = None
    for key in keys:
        for run in range(50):
            old = _old_derive_seed(0, key, run)
            if old in seen and seen[old][0] != key:
                collision = (seen[old], (key, run))
                break
            seen[old] = (key, run)
        if collision:
            break
    assert collision is not None, "search space should exhibit an old collision"
    (key_a, run_a), (key_b, run_b) = collision
    assert _old_derive_seed(0, key_a, run_a) == _old_derive_seed(0, key_b, run_b)
    assert exp.derive_seed(0, key_a, run_a) != exp.derive_seed(0, key_b, run_b)


def test_derive_seed_dense_grid_is_collision_free():
    # a Table 3-sized grid times a campaign's worth of runs: all distinct
    keys = [f"k{i}->k{j}" for i in range(10) for j in range(10)]
    seeds = {exp.derive_seed(0, key, run) for key in keys for run in range(100)}
    assert len(seeds) == len(keys) * 100


def test_table3_spec_uses_the_derived_cell_seeds():
    spec = table3.spec(runs=3, base_seed=1000)
    cell = spec.cell("pbr->lfr")
    assert cell.seeds == exp.derive_seeds(1000, "pbr->lfr", 3)


# -- hashing -------------------------------------------------------------------


def test_spec_hash_is_stable():
    assert exp.spec_hash(_spec()) == exp.spec_hash(_spec())


@pytest.mark.parametrize(
    "mutation",
    [
        {"name": "other"},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 2}, (4,)))},
        {"trials": (exp.Trial("a", {"x": 9}, (1, 2)), exp.Trial("b", {"x": 2}, (3,)))},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2, 3)), exp.Trial("b", {"x": 2}, (3,)))},
        {"reduce": _sum_reduce},
    ],
    ids=["name", "seed", "params", "runs", "reduce"],
)
def test_spec_hash_sees_every_identity_field(mutation):
    assert exp.spec_hash(_spec(**mutation)) != exp.spec_hash(_spec())


def test_fingerprint_is_json_safe_and_names_the_trial():
    import json

    fp = exp.fingerprint(_spec())
    json.dumps(fp)
    assert fp["trial"].endswith(":_echo")
    assert fp["trials"][0]["seeds"] == [1, 2]
    assert fp["reduce"] is None


# -- cell hashing --------------------------------------------------------------


def test_cell_hash_is_stable_and_distinct_per_cell():
    spec = _spec()
    hashes = [exp.cell_hash(spec, trial) for trial in spec.trials]
    assert hashes == [exp.cell_hash(_spec(), trial) for trial in _spec().trials]
    assert len(set(hashes)) == len(hashes)


def test_editing_one_cell_changes_only_that_cells_hash():
    spec = _spec()
    edited = _spec(
        trials=(exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 99}, (3,)))
    )
    assert exp.cell_hash(spec, spec.cell("a")) == exp.cell_hash(
        edited, edited.cell("a")
    )
    assert exp.cell_hash(spec, spec.cell("b")) != exp.cell_hash(
        edited, edited.cell("b")
    )


def test_spec_level_changes_invalidate_every_cell():
    spec = _spec()
    for mutated in (_spec(name="other"), _spec(reduce=_sum_reduce)):
        for trial in spec.trials:
            assert exp.cell_hash(spec, trial) != exp.cell_hash(
                mutated, mutated.cell(trial.key)
            )


def test_cell_fingerprint_is_json_safe():
    spec = _spec()
    fp = exp.cell_fingerprint(spec, spec.cell("a"))
    json.dumps(fp)
    assert fp["cell"]["key"] == "a"
    assert fp["code"] == spec_mod.code_digest(_echo, None)


def test_cell_slug_is_filesystem_safe():
    assert exp.cell_slug("pbr->lfr") == "pbr-_lfr"
    assert exp.cell_slug("deploy:pbr+tr") == "deploy_pbr+tr"
    assert exp.cell_slug("///") == "cell"
    assert len(exp.cell_slug("x" * 200)) == 48


# -- validation ----------------------------------------------------------------


def test_spec_rejects_lambda_trials():
    with pytest.raises(SpecError):
        exp.ExperimentSpec(
            name="bad", trial=lambda s, p: {}, trials=(exp.Trial("a"),)
        )


def test_spec_rejects_lambda_reduce():
    with pytest.raises(SpecError):
        _spec(reduce=lambda values: len(values))


def test_spec_rejects_duplicate_cell_keys():
    with pytest.raises(SpecError):
        _spec(trials=(exp.Trial("a"), exp.Trial("a")))


def test_spec_cell_lookup():
    spec = _spec()
    assert spec.cell("b").params == {"x": 2}
    assert spec.unit_count == 3
    with pytest.raises(SpecError):
        spec.cell("missing")


# -- identity is the code digest, computed once per function object -----------


@pytest.fixture
def package_copy(tmp_path, monkeypatch):
    """The code digest pointed at a scratch copy of the ``repro`` package.

    Clearing the memo stands for a fresh process: nothing has been
    hashed yet, so the next address reads the copy's bytes.
    """
    root = tmp_path / "repro"
    shutil.copytree(spec_mod.PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(spec_mod, "PACKAGE_ROOT", root)
    spec_mod._code_digest.cache_clear()
    yield root
    spec_mod._code_digest.cache_clear()


def test_an_address_moves_with_the_bytes_of_any_package_file(package_copy):
    spec = table3.spec(runs=1)
    cell = spec.trials[0]
    before = exp.cell_hash(spec, cell)
    files = sorted(package_copy.rglob("*.py"))
    assert len(files) > 90
    kept = []
    for path in files:
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        spec_mod._code_digest.cache_clear()
        if exp.cell_hash(spec, cell) == before:
            kept.append(path.relative_to(package_copy).as_posix())
        path.write_bytes(original)
    assert kept == []
    (package_copy / "kernel" / "extra.py").write_text("")
    spec_mod._code_digest.cache_clear()
    assert exp.cell_hash(spec, cell) != before
    (package_copy / "kernel" / "extra.py").unlink()
    spec_mod._code_digest.cache_clear()
    assert exp.cell_hash(spec, cell) == before


def test_an_edit_below_the_trial_misses_a_warm_store(package_copy, tmp_path):
    # the stale hit this digest closes: an edit in the mission builder,
    # two calls below campaign._trial, used to replay the old values
    spec = campaign.sharded_spec(missions=2, requests=10, cell_size=2)
    store = exp.ResultStore(tmp_path / "store")
    cold = exp.run(spec, jobs=1, backend="serial", store=store)
    assert cold.executed == 2
    old_files = {p.name for p in store.spec_dir(spec).glob("shard-*.json")}
    assert exp.run(spec, jobs=1, backend="serial", store=store).cache_state == "full"

    mission = package_copy / "eval" / "mission.py"
    source = mission.read_text()
    assert source.count("World(seed=seed)") == 1
    mission.write_text(source.replace("World(seed=seed)", "World(seed=seed + 1)"))
    spec_mod._code_digest.cache_clear()
    edited = exp.run(spec, jobs=1, backend="serial", store=store)
    assert edited.cache_state == "cold" and edited.executed == 2
    new_files = {p.name for p in store.spec_dir(spec).glob("shard-*.json")}
    assert len(new_files - old_files) == 1

    replay = exp.run(spec, jobs=1, backend="serial", store=store)
    assert replay.cache_state == "full" and replay.executed == 0


def test_reloading_an_edited_trial_module_changes_cell_hash(tmp_path, monkeypatch):
    name = "reloadable_trial_mod"
    path = tmp_path / f"{name}.py"
    path.write_text("def trial(seed, params):\n    return seed\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module(name)
    try:
        cell = exp.Trial("a", {"x": 1}, (1,))
        spec = exp.ExperimentSpec(name="t", trial=module.trial, trials=(cell,))
        before = exp.cell_hash(spec, cell)
        path.write_text("def trial(seed, params):\n    return seed + 1\n")
        # a mid-run file edit must not move the address of imported code
        assert exp.cell_hash(spec, cell) == before
        importlib.reload(module)
        reloaded = exp.ExperimentSpec(name="t", trial=module.trial, trials=(cell,))
        assert exp.cell_hash(reloaded, cell) != before
    finally:
        sys.modules.pop(name, None)


def test_a_wrapper_is_addressed_as_the_function_it_wraps():
    # a profiler wraps trial and reduce per run: its stores must be the
    # plain run's, and the wrapper must not cost a second package read
    @functools.wraps(_echo)
    def wrapped(seed, params):
        return _echo(seed, params)

    plain = exp.spec_hash(_spec())
    misses = spec_mod._code_digest.cache_info().misses
    assert exp.spec_hash(_spec(trial=wrapped)) == plain
    assert spec_mod._code_digest.cache_info().misses == misses


def test_sourceless_function_is_reference_only_and_memoised():
    namespace = {"__name__": __name__}
    exec("def ghost(seed, params):\n    return seed\n", namespace)
    cell = exp.Trial("a", {}, (1,))
    spec = exp.ExperimentSpec(name="t", trial=namespace["ghost"], trials=(cell,))
    misses = spec_mod._code_digest.cache_info().misses
    first = exp.cell_hash(spec, cell)
    assert exp.cell_hash(spec, cell) == first
    assert spec_mod._code_digest.cache_info().misses == misses + 1
    assert exp.fingerprint(spec)["code"] == spec_mod.code_digest()
    assert exp.fingerprint(spec)["trial"].endswith(":ghost")
