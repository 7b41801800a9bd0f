"""Tests for packages, the repository, and the adaptation engine."""

import pytest

from repro.components.spec import AssemblySpec
from repro.core import AdaptationEngine, Repository, build_package
from repro.core.repository import catalogue_package
from repro.ftm import FTM_NAMES, Client, UnknownFTM, deploy_ftm_pair, ftm_assembly
from repro.ftm import PbrSyncAfter, variable_feature_distance
from repro.kernel import Fault, Timeout, World


def make_world(seed=40):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def deploy(world, ftm="pbr", **kwargs):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"], **kwargs)
        return pair

    return world.run_process(do(), name="deploy")


# -- packages & repository -----------------------------------------------------------


def test_package_contents_match_variable_features():
    source = ftm_assembly("pbr", role="master", peer="beta")
    target = ftm_assembly("lfr", role="master", peer="beta")
    package = build_package("pbr", "lfr", source, target)
    names = sorted(spec.name for spec in package.components)
    assert names == ["syncAfter", "syncBefore"]
    assert package.component_count == 2
    assert package.removed == ("syncAfter", "syncBefore")
    assert package.size > 0


def test_repository_builds_and_caches():
    repository = Repository()
    package1 = repository.transition_package("pbr", "lfr", "master", "beta")
    package2 = repository.transition_package("pbr", "lfr", "master", "beta")
    assert package1 is package2
    assert repository.packages_built == 1
    # the cold side is process-wide: another repository admits the very
    # same validated object, and counts it as its own
    other = Repository()
    assert other.transition_package("pbr", "lfr", "master", "beta") is package1
    assert other.packages_built == 1
    assert repository.packages_built == 1


def test_repository_validates_packages():
    repository = Repository()
    package = repository.transition_package("lfr", "lfr+tr", "slave", "alpha")
    assert package.component_count == 1
    assert [s.name for s in package.components] == ["proceed"]


def test_repository_knows_catalog_ftms():
    repository = Repository()
    for ftm in FTM_NAMES:
        assert repository.knows(ftm)
    assert not repository.knows("made-up")


def test_repository_register_custom_ftm():
    repository = Repository()

    def builder(role, peer, app="counter", assertion="always-true", composite="ftm",
                **kwargs):
        return ftm_assembly("pbr+tr", role=role, peer=peer, app=app,
                            assertion=assertion, composite=composite)

    repository.register_ftm("pbr-hardened", builder)
    assert repository.knows("pbr-hardened")
    with pytest.raises(ValueError):
        repository.register_ftm("pbr-hardened", builder)


def test_registered_ftm_is_private_to_its_repository():
    first, second = Repository(), Repository()

    def hardened(role, peer, app="counter", assertion="always-true",
                 composite="ftm", **kwargs):
        return ftm_assembly("pbr+tr", role=role, peer=peer, app=app,
                            assertion=assertion, composite=composite)

    first.register_ftm("pbr-hardened", hardened)
    first.register_ftm("lfr", hardened)  # shadows a catalogue name, here only
    catalogue_package.cache_clear()

    novel = first.transition_package("pbr", "pbr-hardened", "master", "beta")
    shadowed = first.transition_package("pbr", "lfr", "master", "beta")
    assert [s.name for s in novel.components] == ["proceed"]
    assert [s.name for s in shadowed.components] == ["proceed"]
    assert first.packages_built == 2
    # neither build went through (or into) the shared table
    assert catalogue_package.cache_info().currsize == 0
    assert catalogue_package.cache_info().misses == 0

    assert not second.knows("pbr-hardened")
    with pytest.raises(UnknownFTM):
        second.transition_package("pbr", "pbr-hardened", "master", "beta")
    catalogue = second.transition_package("pbr", "lfr", "master", "beta")
    assert catalogue is not shadowed
    assert sorted(s.name for s in catalogue.components) == [
        "syncAfter", "syncBefore",
    ]
    # and the first repository keeps answering with what it admitted
    assert first.transition_package("pbr", "lfr", "master", "beta") is shadowed


def test_script_corruption_in_one_world_leaves_the_shared_package_intact():
    package = Repository().transition_package("pbr", "lfr", "master", "beta")
    statements = package.script.statements

    world_a = make_world(seed=41)
    pair_a = deploy(world_a, "pbr")
    engine_a = AdaptationEngine(world_a, pair_a)
    world_a.faults.arm(Fault("corrupt", "alpha", phase="script"))
    world_a.faults.arm(Fault("corrupt", "beta", phase="script"))
    report_a = world_a.run_process(engine_a.transition("lfr"), name="tampered")
    assert report_a.degraded
    rolled_back = world_a.trace.select("script", "rollback")
    assert {r.detail("script") for r in rolled_back} == {"pbr-to-lfr-tampered"}
    assert engine_a.repository.transition_package(
        "pbr", "lfr", "master", "beta"
    ) is package

    world_b = make_world(seed=42)
    pair_b = deploy(world_b, "pbr")
    engine_b = AdaptationEngine(world_b, pair_b)
    report_b = world_b.run_process(engine_b.transition("lfr"), name="clean")
    assert report_b.success and pair_b.ftm == "lfr"
    assert not world_b.trace.select("script", "rollback")
    assert {r.detail("script") for r in world_b.trace.select("script", "commit")} \
        == {"pbr-to-lfr"}
    assert engine_b.repository.transition_package(
        "pbr", "lfr", "master", "beta"
    ) is package
    assert package.script.name == "pbr-to-lfr"
    assert package.script.statements is statements


# -- transitions on a live pair ----------------------------------------------------------


def test_pbr_to_lfr_transition_live():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        before = yield from client.request(("add", 5))
        report = yield from engine.transition("lfr")
        after = yield from client.request(("add", 5))
        return before, report, after

    before, report, after = world.run_process(scenario(), name="scenario")
    assert before.value == 5 and after.value == 10
    assert report.success
    assert pair.ftm == "lfr"
    assert pair.logged_configuration()["ftm"] == "lfr"
    # both replicas transitioned
    assert len([r for r in report.replicas if r.success]) == 2


def test_transition_to_a_field_ftm_with_a_new_brick():
    """An FTM built after deployment, around a brick no catalogue FTM has."""

    class FieldSyncAfter(PbrSyncAfter):
        """The field-developed agreement step."""

    def builder(role, peer, app="counter", assertion="always-true", composite="ftm",
                **kwargs):
        base = ftm_assembly("pbr", role=role, peer=peer, app=app,
                            assertion=assertion, composite=composite)
        components = tuple(
            type(spec).make("syncAfter", FieldSyncAfter, size=5120)
            if spec.name == "syncAfter" else spec
            for spec in base.components
        )
        return AssemblySpec(name=base.name, components=components,
                            wires=base.wires, promotions=base.promotions)

    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    engine.repository.register_ftm("pbr-field", builder)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        yield from client.request(("add", 1))
        report = yield from engine.transition("pbr-field")
        after = yield from client.request(("add", 1))
        return report, after

    report, after = world.run_process(scenario(), name="scenario")
    assert report.success
    assert report.component_count == 1  # only the new brick shipped
    assert pair.ftm == "pbr-field" and after.value == 2
    for replica in pair.replicas:
        sync_after = replica.composite.component("syncAfter").implementation
        assert type(sync_after) is FieldSyncAfter


def test_transition_preserves_application_state():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        for _ in range(4):
            yield from client.request(("add", 10))
        yield from engine.transition("lfr")
        reply = yield from client.request(("get",))
        return reply

    reply = world.run_process(scenario(), name="scenario")
    assert reply.value == 40  # no state transfer issues: state never moved


def test_transition_preserves_at_most_once_log():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        yield from client.request(("add", 5))
        yield from engine.transition("lfr")
        # replay request 1 manually after the transition
        from repro.ftm.messages import ClientRequest

        mailbox = world.network.bind("client", "probe")
        world.network.send(
            "client", "alpha", "requests",
            ClientRequest(1, "c1", ("add", 5), "client", "probe"), size=128,
        )
        message = yield mailbox.get()
        return message.payload

    reply = world.run_process(scenario(), name="scenario")
    assert reply.replayed  # the reply log survived the transition


def test_requests_buffered_during_transition_are_served_after():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    client = Client(
        world, world.cluster.node("client"), "c1", pair.node_names(),
        timeout=5_000.0,
    )
    results = {}

    def requester():
        # fire during the transition window
        yield Timeout(200.0)
        reply = yield from client.request(("add", 7))
        results["reply"] = reply
        results["served_at"] = world.now

    def transitioner():
        results["t0"] = world.now
        report = yield from engine.transition("lfr")
        results["t1"] = world.now
        return report

    world.sim.spawn(requester())
    world.run_process(transitioner(), name="transition")
    world.run(until=world.now + 8_000.0)
    assert results["reply"].ok and results["reply"].value == 7


def test_noop_transition_is_free():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)

    def do():
        report = yield from engine.transition("pbr")
        return report

    report = world.run_process(do(), name="noop")
    assert report.per_replica_ms == 0.0
    assert pair.ftm == "pbr"


@pytest.mark.parametrize("source", FTM_NAMES)
@pytest.mark.parametrize("target", FTM_NAMES)
def test_every_pair_transition_works(source, target):
    if source == target:
        pytest.skip("identity")
    world = make_world(seed=hash((source, target)) % 1000)
    pair = deploy(world, source, assertion="counter-range")
    engine = AdaptationEngine(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        r1 = yield from client.request(("add", 1))
        report = yield from engine.transition(target)
        r2 = yield from client.request(("add", 1))
        return r1, report, r2

    r1, report, r2 = world.run_process(scenario(), name="scenario")
    assert r1.value == 1 and r2.value == 2
    assert report.success
    assert pair.ftm == target
    assert report.component_count == variable_feature_distance(source, target)


def test_transition_time_scales_with_component_count():
    times = {}
    for target, count in [("pbr+tr", 1), ("lfr", 2), ("lfr+tr", 3)]:
        world = make_world()
        pair = deploy(world, "pbr")
        engine = AdaptationEngine(world, pair)

        def do():
            report = yield from engine.transition(target)
            return report

        report = world.run_process(do(), name="t")
        times[count] = report.per_replica_ms
    assert times[1] < times[2] < times[3]
    # and every transition is much cheaper than a full deployment (~3.8 s)
    assert times[3] < 2_000.0


# -- distributed consistency under failure ---------------------------------------------------


def test_script_failure_kills_replica_and_survivor_continues():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)
    client = Client(world, world.cluster.node("client"), "c1", pair.node_names())

    def scenario():
        world.faults.arm(Fault("corrupt", "beta", phase="script"))
        report = yield from engine.transition("lfr")
        yield Timeout(300.0)  # let the FD notice the kill
        reply = yield from client.request(("add", 3))
        return report, reply

    report, reply = world.run_process(scenario(), name="scenario")
    beta_report = next(r for r in report.replicas if r.node == "beta")
    assert beta_report.killed and not beta_report.success
    alpha_report = next(r for r in report.replicas if r.node == "alpha")
    assert alpha_report.success
    assert not world.cluster.node("beta").is_up  # fail-silent
    assert reply.ok and reply.value == 3        # master-alone serves on
    assert pair.ftm == "lfr"                     # survivor's config won
    assert pair.logged_configuration()["ftm"] == "lfr"


def test_script_failure_on_both_replicas_degrades_transition():
    world = make_world()
    pair = deploy(world, "pbr")
    engine = AdaptationEngine(world, pair)

    # fail everywhere: inject on one replica and crash the other first
    world.cluster.node("alpha").crash()

    def scenario():
        world.faults.arm(Fault("corrupt", "beta", phase="script"))
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(scenario(), name="scenario")
    assert report.success is False
    assert report.degraded is True
    assert report.outcome == "degraded"
    # no context given: the fallback is the source FTM the pair keeps serving
    assert report.fallback_ftm == "pbr"
    assert pair.ftm == "pbr"  # configuration unchanged
    assert engine.degraded_transitions == 1


def test_crashed_mid_transition_replica_recovers_in_target_config():
    world = make_world()
    pair = deploy(world, "pbr")
    pair.enable_recovery(restart_delay=300.0)
    engine = AdaptationEngine(world, pair)

    def scenario():
        world.faults.arm(Fault("corrupt", "beta", phase="script"))
        report = yield from engine.transition("lfr")
        yield Timeout(8_000.0)  # restart + redeploy + reintegration
        return report

    world.run_process(scenario(), name="scenario")
    beta = pair.replica_on("beta")
    assert beta.alive
    # Sec 5.3: the restarted replica came back in the configuration its
    # peer reached (LFR), read from stable storage
    assert beta.composite.component("syncBefore").implementation.__class__.__name__ == (
        "LfrSyncBefore"
    )
    assert pair.ftm == "lfr"
