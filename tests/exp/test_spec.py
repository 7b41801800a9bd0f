"""Unit tests for experiment specs: seed derivation, hashing, validation."""

import hashlib
import importlib
import inspect
import json
import sys
import zlib

import pytest

from repro import exp
from repro.eval import table3
from repro.exp.errors import SpecError
from tests.golden import cell_addresses


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
        {"version": "3"},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2)), exp.Trial("b", {"x": 2}, (4,)))},
        {"trials": (exp.Trial("a", {"x": 9}, (1, 2)), exp.Trial("b", {"x": 2}, (3,)))},
        {"trials": (exp.Trial("a", {"x": 1}, (1, 2, 3)), exp.Trial("b", {"x": 2}, (3,)))},
        {"reduce": _sum_reduce},
    ],
    ids=["name", "version", "seed", "params", "runs", "reduce"],
)
def test_spec_hash_sees_every_identity_field(mutation):
    assert exp.spec_hash(_spec(**mutation)) != exp.spec_hash(_spec())


def test_default_version_is_bumped_for_the_64bit_seeds():
    # entries stored under the "1" (crc32 % 100_000) scheme must miss
    assert _spec().version == "2"


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
    for mutated in (_spec(version="3"), _spec(reduce=_sum_reduce)):
        for trial in spec.trials:
            assert exp.cell_hash(spec, trial) != exp.cell_hash(
                mutated, mutated.cell(trial.key)
            )


def test_cell_fingerprint_is_json_safe():
    spec = _spec()
    fp = exp.cell_fingerprint(spec, spec.cell("a"))
    json.dumps(fp)
    assert fp["cell"]["key"] == "a"
    assert fp["version"] == spec.version


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


# -- identity is computed once per function object -----------------------------


@pytest.mark.parametrize("label", sorted(cell_addresses.SPECS))
def test_cell_addresses_match_the_pre_memo_golden(label):
    # recorded from the parent tree: stores it wrote must still be full hits
    golden = json.loads(cell_addresses.GOLDEN_PATH.read_text())[label]
    assert cell_addresses.addresses(cell_addresses.SPECS[label]()) == golden


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


def test_sourceless_function_is_reference_only_and_memoised(monkeypatch):
    namespace = {"__name__": __name__}
    exec("def ghost(seed, params):\n    return seed\n", namespace)
    calls = []
    real_getsource = inspect.getsource

    def counting_getsource(fn):
        calls.append(fn)
        return real_getsource(fn)

    monkeypatch.setattr(inspect, "getsource", counting_getsource)
    cell = exp.Trial("a", {}, (1,))
    spec = exp.ExperimentSpec(name="t", trial=namespace["ghost"], trials=(cell,))
    first = exp.cell_hash(spec, cell)
    assert exp.cell_hash(spec, cell) == first
    assert exp.fingerprint(spec)["trial_source_sha256"] == ""
    assert exp.fingerprint(spec)["trial"].endswith(":ghost")
    assert calls == [namespace["ghost"]]
