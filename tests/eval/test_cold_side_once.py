"""The cold side runs once per process, and no world can tell.

Catalogue transition packages are built and validated off-line once per
distinct repository key (``repro.core.repository.catalogue_package``)
and shared by every world.  These tests pin the two halves of that
contract on the eval builders: the build budget (one ``build_package``
and one ``validate_script`` per key, however many trials run) and
first-world-equals-nth-world identity (a world simulated against a cold
table and one simulated against a warm table are indistinguishable).
"""

import collections

import pytest

from repro import exp
from repro.core import AdaptationEngine
from repro.core import adaptation_engine as engine_module
from repro.core import repository as repository_module
from repro.core.repository import catalogue_package
from repro.eval import campaign, table3, transition_matrix
from repro.kernel import World


def test_table3_builds_and_validates_each_package_once(monkeypatch):
    builds = collections.Counter()
    validations = collections.Counter()
    real_build = repository_module.build_package
    real_validate = repository_module.validate_script

    def counting_build(source_ftm, target_ftm, *args, **kwargs):
        builds[(source_ftm, target_ftm)] += 1
        return real_build(source_ftm, target_ftm, *args, **kwargs)

    def counting_validate(script, *args, **kwargs):
        validations[script.name] += 1
        return real_validate(script, *args, **kwargs)

    monkeypatch.setattr(repository_module, "build_package", counting_build)
    monkeypatch.setattr(repository_module, "validate_script", counting_validate)
    catalogue_package.cache_clear()

    spec = table3.spec(runs=2)
    result = exp.run(spec, jobs=1, backend="serial")
    transitions = [t for t in spec.trials if t.params["kind"] == "transition"]
    assert result.executed == 2 * len(spec.trials)

    # 30 transitions x (master, slave): one build and one validation per
    # repository key, not one per replica per trial
    assert set(builds) == {
        (t.params["source"], t.params["target"]) for t in transitions
    }
    assert max(builds.values()) <= 2, builds
    assert max(validations.values()) <= 2, validations
    assert sum(builds.values()) <= 2 * len(transitions)
    assert sum(validations.values()) == sum(builds.values())
    assert catalogue_package.cache_info().misses == sum(builds.values())

    # a second pass over the same matrix is all hits: nothing is rebuilt
    before = sum(builds.values())
    exp.run(spec, jobs=1, backend="serial")
    assert sum(builds.values()) == before
    assert sum(validations.values()) == before


# -- first world == nth world -----------------------------------------------------------


@pytest.fixture
def engines(monkeypatch):
    """Every AdaptationEngine the eval builders make, in creation order."""
    made = []

    class RecordingEngine(AdaptationEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    class DigestingWorld(World):
        """``close()`` empties the trace: keep its digest from just before."""

        def close(self):
            assert self.trace.records, "nothing was traced before close()"
            self.closing_digest = self.trace.digest()
            super().close()

    # table3 binds the engine at import; campaign and transition_matrix
    # import it from its defining module when a mission is built
    for module in (table3, engine_module):
        monkeypatch.setattr(module, "AdaptationEngine", RecordingEngine)
    monkeypatch.setattr(table3, "World", DigestingWorld)
    return made


def _drive(task):
    """``run_solo`` with the trace read before the world is closed."""
    task.world.sim.advance(task.process.terminated)
    assert task.world.trace.records
    digest = task.world.trace.digest()
    result = task.result()
    task.world.close()
    return digest, result


def _table3_transition(engines):
    result = table3._trial(
        1234, {"kind": "transition", "source": "pbr", "target": "a+lfr"}
    )
    engine = engines.pop()
    return engine.world.closing_digest, engine.history, result


def _campaign_mission(engines):
    digest, result = _drive(campaign.mission_task(5001, requests=8))
    return digest, engines.pop().history, result


def _script_corrupt_cell(engines):
    digest, result = _drive(transition_matrix.cell_task(
        7001, "pbr", "lfr", "script/corrupt", requests=6
    ))
    return digest, engines.pop().history, result


def _twenty_other_worlds():
    transitions = [
        t for t in table3.spec(runs=1).trials if t.params["kind"] == "transition"
    ]
    for trial in transitions[:20]:
        table3._trial(trial.seeds[0], trial.params)


@pytest.mark.parametrize(
    "observe", [_table3_transition, _campaign_mission, _script_corrupt_cell]
)
def test_first_world_equals_nth_world(observe, engines):
    catalogue_package.cache_clear()
    cold = observe(engines)
    assert catalogue_package.cache_info().misses > 0
    _twenty_other_worlds()
    engines.clear()
    misses = catalogue_package.cache_info().misses
    warm = observe(engines)
    assert catalogue_package.cache_info().misses == misses  # all hits

    # and in the other order: warm first, then against a cleared table
    catalogue_package.cache_clear()
    cold_again = observe(engines)
    assert catalogue_package.cache_info().misses > 0

    assert cold[1], "the observed world ran no transition"
    assert warm == cold
    assert cold_again == warm
