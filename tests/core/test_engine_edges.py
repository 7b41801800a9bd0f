"""Edge cases of the repository and the adaptation engine."""

import pytest

from repro.core import (
    AdaptationEngine,
    PackageRejected,
    Repository,
)
from repro.core import repository as repository_module
from repro.ftm import deploy_ftm_pair, ftm_assembly
from repro.kernel import World


def make_pair(seed=140):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])

    def do():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        return pair

    pair = world.run_process(do(), name="deploy")
    return world, pair


def test_repository_rejects_malformed_custom_ftm():
    repository = Repository()

    def broken_builder(role, peer, app="counter", assertion="always-true",
                       composite="ftm", **kwargs):
        # a blueprint whose syncAfter is missing: the generated script
        # would remove components that the target never re-adds, leaving
        # dangling wires -> off-line validation must reject the package
        base = ftm_assembly("lfr", role=role, peer=peer, app=app,
                            assertion=assertion, composite=composite)
        from repro.components import AssemblySpec

        return AssemblySpec(
            name=base.name,
            components=tuple(c for c in base.components if c.name != "syncAfter"),
            wires=base.wires,
            promotions=base.promotions,
        )

    repository.register_ftm("broken", broken_builder)
    with pytest.raises(PackageRejected):
        repository.transition_package("pbr", "broken", "master", "beta")
    assert repository.packages_rejected == 1
    # a rejection is a verdict on this call, not an entry: validated again
    with pytest.raises(PackageRejected):
        repository.transition_package("pbr", "broken", "master", "beta")
    assert repository.packages_rejected == 2
    assert repository.packages_built == 0


def test_catalogue_rejection_is_never_cached(monkeypatch):
    real_validate = repository_module.validate_script
    verdicts = []

    def failing_validate(script, architecture, shipped):
        verdicts.append(script.name)
        return ["forced rejection"]

    repository_module.catalogue_package.cache_clear()
    repository = Repository()
    monkeypatch.setattr(repository_module, "validate_script", failing_validate)
    for expected in (1, 2):
        with pytest.raises(PackageRejected):
            repository.transition_package("pbr", "lfr", "master", "beta")
        assert repository.packages_rejected == expected
    assert verdicts == ["pbr-to-lfr", "pbr-to-lfr"]
    assert repository_module.catalogue_package.cache_info().currsize == 0

    # once the package validates, the same repository admits it
    monkeypatch.setattr(repository_module, "validate_script", real_validate)
    package = repository.transition_package("pbr", "lfr", "master", "beta")
    assert package.name == "pbr-to-lfr"
    assert (repository.packages_built, repository.packages_rejected) == (1, 2)


def test_transition_degrades_when_both_replicas_dead():
    world, pair = make_pair()
    engine = AdaptationEngine(world, pair)
    world.cluster.node("alpha").crash()
    world.cluster.node("beta").crash()

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(do(), name="doomed")
    # regression: with every replica dead the report must NOT claim success
    assert report.success is False
    assert report.degraded is True
    # the component count is still computed (from the repository manifest,
    # not from a dead replica)
    assert report.component_count > 0
    assert pair.ftm == "pbr"


def test_engine_history_records_everything():
    world, pair = make_pair(seed=141)
    engine = AdaptationEngine(world, pair)

    def do():
        yield from engine.transition("lfr")
        yield from engine.transition("lfr")  # no-op
        yield from engine.transition("pbr+tr")

    world.run_process(do(), name="history")
    assert len(engine.history) == 3
    assert [r.target_ftm for r in engine.history] == ["lfr", "lfr", "pbr+tr"]
    assert engine.history[1].per_replica_ms == 0.0  # the no-op


def test_transition_report_phase_shares_sum_to_one():
    world, pair = make_pair(seed=142)
    engine = AdaptationEngine(world, pair)

    def do():
        report = yield from engine.transition("a+lfr")
        return report

    report = world.run_process(do(), name="t")
    for replica in report.replicas:
        shares = replica.phase_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in shares.values())


def test_deployed_ftm_bookkeeping_follows_transitions():
    world, pair = make_pair(seed=143)
    engine = AdaptationEngine(world, pair)
    assert all(r.deployed_ftm == "pbr" for r in pair.replicas)

    def do():
        yield from engine.transition("lfr+tr")

    world.run_process(do(), name="t")
    assert all(r.deployed_ftm == "lfr+tr" for r in pair.replicas)
