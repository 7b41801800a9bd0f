"""Fault-tolerant transitions: networked delivery, retry, degraded mode.

Covers the resilient transition path end to end: chunked package fetch
over the hosted repository, retry/backoff under omission faults on the
repository link, checksum rejection of corrupted payloads, degraded-mode
fallback when the target FTM cannot be installed, and quarantine
reintegration of replicas killed by failed scripts.
"""

import pytest

from repro.app.workloads import constant
from repro.core import (
    AdaptationEngine,
    PackageFetchFailed,
    Repository,
    next_best_ftm,
)
from repro.core.parameters import SystemContext
from repro.core.transition import package_blob, package_checksum
from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import Fault, Timeout, World

pytestmark = []


def make_world(seed=60):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def deploy(world, ftm="pbr"):
    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"])
        return pair

    return world.run_process(do(), name="deploy")


def attach_repo(world):
    repo = Repository()
    repo.attach(world)
    return repo


# -- the wire format -----------------------------------------------------------------


def test_package_blob_is_deterministic_and_sized():
    repo = Repository()
    package = repo.transition_package("pbr", "lfr", role="master", peer="beta")
    blob = package_blob(package)
    assert len(blob) == package.size
    assert package_blob(package) == blob  # cached + deterministic
    assert package_checksum(package) == package_checksum(package)
    other = repo.transition_package("pbr", "lfr+tr", role="master", peer="beta")
    assert package_checksum(other) != package_checksum(package)


# -- networked fetch: happy path ------------------------------------------------------


def test_networked_fetch_serves_chunks_and_succeeds():
    world = make_world()
    pair = deploy(world)
    repo = attach_repo(world)
    engine = AdaptationEngine(world, pair, repo)

    def do():
        report = yield from engine.transition("lfr+tr")
        return report

    report = world.run_process(do(), name="net-transition")
    assert report.success
    assert pair.ftm == "lfr+tr"
    assert repo.chunks_served > 0
    # every replica fetched each chunk at least once
    package = repo.transition_package(
        "pbr", "lfr+tr", role="master", peer="beta"
    )
    import math

    chunks = math.ceil(package.size / world.costs.package_chunk_bytes)
    for replica_report in report.replicas:
        assert replica_report.fetch_attempts >= chunks
        assert replica_report.corrupt_fetches == 0


def test_unattached_repository_keeps_flat_fetch_cost():
    """Table 3 calibration must not shift when nothing is networked."""
    flat = make_world()
    pair = deploy(flat)
    engine = AdaptationEngine(flat, pair)  # repository NOT attached

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = flat.run_process(do(), name="flat")
    assert report.success
    for replica_report in report.replicas:
        assert replica_report.fetch_attempts == 1


def test_repository_attach_twice_rejected():
    world = make_world()
    repo = attach_repo(world)
    with pytest.raises(ValueError):
        repo.attach(world, "elsewhere")


# -- omission faults on the repository link -------------------------------------------


@pytest.mark.parametrize("loss", [0.1, 0.3])
def test_transitions_converge_under_repository_link_loss(loss):
    """100 seeded transitions under link omission: all converge, none lost.

    The acceptance bar of the resilient-transition design: with omission
    rate <= 0.3 on the repository link every transition ends in success
    or clean degraded fallback, and the concurrent client workload is
    served exactly once.
    """
    outcomes = {"success": 0, "degraded": 0}
    retried = 0
    for offset in range(100):
        world = World(seed=9000 + offset)
        world.add_nodes(["alpha", "beta", "client"])

        def scenario():
            pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
            repo = attach_repo(world)
            world.network.set_link_loss("alpha", "repository", loss)
            world.network.set_link_loss("beta", "repository", loss)
            engine = AdaptationEngine(world, pair, repo)
            client = Client(
                world, world.cluster.node("client"), "c1", pair.node_names(),
                timeout=4_000.0, max_attempts=10,
            )
            box = {}

            def adapt():
                yield Timeout(200.0)
                box["report"] = yield from engine.transition("lfr+tr")

            world.sim.spawn(adapt(), name="adapt")
            yield from constant(client, count=10, period_ms=120.0)
            yield Timeout(2_000.0)
            return pair, box["report"], client

        pair, report, client = world.run_process(scenario(), name="mission")
        assert report.outcome in ("success", "degraded"), report.outcome
        outcomes[report.outcome] += 1
        # exactly-once client service throughout
        assert client.all_ok
        assert client.replies[-1].value == 10
        # converged: serving the target, or cleanly back on the source
        expected = "lfr+tr" if report.success else "pbr"
        assert pair.ftm == expected
        retried += sum(r.fetch_attempts for r in report.replicas)
    assert outcomes["success"] >= 90  # retries absorb almost all loss
    assert retried > 600  # 100 runs x 2 replicas x 3 chunks minimum


def test_backoff_retries_are_traced_and_bounded():
    world = make_world(seed=61)
    pair = deploy(world)
    repo = attach_repo(world)
    world.network.set_link_loss("beta", "repository", 0.4)
    engine = AdaptationEngine(world, pair, repo)

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(do(), name="lossy")
    assert report.outcome in ("success", "degraded")
    beta = next(r for r in report.replicas if r.node == "beta")
    cap = world.costs.fetch_chunk_attempts * world.costs.fetch_integrity_attempts
    import math

    chunks = math.ceil(
        repo.transition_package("pbr", "lfr", role="slave", peer="alpha").size
        / world.costs.package_chunk_bytes
    )
    assert beta.fetch_attempts <= cap * chunks
    if beta.fetch_attempts > chunks:
        assert world.trace.count("adaptation", "fetch_retry") > 0


# -- corruption: checksum always catches it -------------------------------------------


def test_corrupted_fetch_detected_and_refetched():
    world = make_world(seed=62)
    pair = deploy(world)
    repo = attach_repo(world)
    world.faults.arm(Fault("corrupt", "beta", phase="fetch"))
    engine = AdaptationEngine(world, pair, repo)

    def do():
        report = yield from engine.transition("lfr+tr")
        return report

    report = world.run_process(do(), name="corrupt")
    beta = next(r for r in report.replicas if r.node == "beta")
    assert beta.corrupt_fetches >= 1        # the tampered payload was rejected
    assert beta.success                      # ... and the refetch succeeded
    assert world.trace.count("adaptation", "fetch_corrupt_detected") >= 1
    assert pair.ftm == "lfr+tr"


def test_permanently_corrupted_fetch_never_installs(monkeypatch):
    """Even a corruption that survives every retry never reaches the script."""
    world = make_world(seed=63)
    pair = deploy(world)
    repo = attach_repo(world)
    # tamper every chunk every time: the integrity budget must exhaust
    world.faults.arm(Fault("corrupt", phase="fetch", budget=10_000))
    engine = AdaptationEngine(world, pair, repo)

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(do(), name="doomed-fetch")
    assert report.success is False
    assert report.degraded is True
    for replica_report in report.replicas:
        assert replica_report.success is False
        assert "checksum" in (replica_report.error or "")
    # nothing was installed: both replicas still serve the source FTM
    assert pair.ftm == "pbr"
    assert world.trace.count("script", "commit") == 0


# -- degraded-mode fallback -----------------------------------------------------------


def test_repository_crash_degrades_cleanly():
    world = make_world(seed=64)
    pair = deploy(world)
    repo = attach_repo(world)
    engine = AdaptationEngine(world, pair, repo)
    world.cluster.node("repository").crash()

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(do(), name="repo-down")
    assert report.outcome == "degraded"
    assert report.fallback_ftm == "pbr"  # no context: source FTM
    assert pair.ftm == "pbr"
    assert all(r.alive for r in pair.replicas)  # nothing was killed
    assert engine.degraded_transitions == 1
    assert world.trace.count("adaptation", "transition_degraded") == 1


def test_degraded_fallback_consults_ftm_ranking():
    world = make_world(seed=65)
    pair = deploy(world)
    repo = attach_repo(world)
    context = SystemContext()
    engine = AdaptationEngine(world, pair, repo, context=context)
    world.cluster.node("repository").crash()

    def do():
        report = yield from engine.transition("lfr+tr")
        return report

    report = world.run_process(do(), name="repo-down")
    assert report.degraded
    expected = next_best_ftm(context, exclude=("lfr+tr",), reachable=repo.knows)
    assert expected is not None
    assert report.fallback_ftm == expected


def test_degraded_service_continues_under_load():
    world = make_world(seed=66)

    def scenario():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        repo = attach_repo(world)
        engine = AdaptationEngine(world, pair, repo)
        client = Client(
            world, world.cluster.node("client"), "c1", pair.node_names(),
            timeout=4_000.0, max_attempts=10,
        )
        world.cluster.node("repository").crash()
        box = {}

        def adapt():
            yield Timeout(300.0)
            box["report"] = yield from engine.transition("lfr")

        world.sim.spawn(adapt(), name="adapt")
        yield from constant(client, count=15, period_ms=120.0)
        while "report" not in box:  # fetch retries may outlast the workload
            yield Timeout(500.0)
        return pair, box["report"], client

    pair, report, client = world.run_process(scenario(), name="degraded-load")
    assert report.degraded
    assert client.all_ok
    assert client.replies[-1].value == 15  # exactly-once despite the fallback
    assert pair.ftm == "pbr"


# -- quarantine: replicas killed by failed scripts come back --------------------------


def test_quarantine_reintegrates_replicas_without_pair_recovery():
    world = make_world(seed=67)
    pair = deploy(world)
    engine = AdaptationEngine(world, pair)
    assert pair.recovery_enabled is False
    # tamper the script on BOTH replicas: the transition fails everywhere,
    # the fail-silent wrapper kills both
    world.faults.arm(Fault("corrupt", "alpha", phase="script"),
                     Fault("corrupt", "beta", phase="script"))

    def do():
        report = yield from engine.transition("lfr")
        yield Timeout(10_000.0)  # quarantine restart + redeploy
        return report

    report = world.run_process(do(), name="quarantine")
    assert report.degraded
    assert all(r.killed for r in report.replicas)
    # the quarantine loop restarted and reintegrated both replicas on the
    # source configuration
    assert engine.quarantine_recoveries == 2
    assert all(r.alive for r in pair.replicas)
    assert all(r.deployed_ftm == "pbr" for r in pair.replicas)
    assert world.trace.count("adaptation", "quarantine_restart") == 2


def test_divergent_replica_is_fail_silenced_and_recovered():
    """One replica's fetch exhausts while the peer reaches the target."""
    world = make_world(seed=68)
    pair = deploy(world)
    pair.enable_recovery(restart_delay=300.0)
    repo = attach_repo(world)
    # beta's fetch is permanently corrupted; alpha's is clean
    world.faults.arm(Fault("corrupt", "beta", phase="fetch", budget=10_000))
    engine = AdaptationEngine(world, pair, repo)

    def do():
        report = yield from engine.transition("lfr")
        yield Timeout(10_000.0)  # recovery tail
        return report

    report = world.run_process(do(), name="diverged")
    assert report.success  # alpha made it
    beta = next(r for r in report.replicas if r.node == "beta")
    assert beta.success is False
    assert beta.killed  # diverged: fail-silenced rather than left mixed
    assert world.trace.count("adaptation", "replica_diverged_killed") == 1
    # recovery brought beta back in the configuration alpha logged
    assert pair.replica_on("beta").alive
    assert pair.replica_on("beta").deployed_ftm == "lfr"


# -- the regression the old engine had ------------------------------------------------


def test_all_replicas_dead_reports_failure_not_success():
    """Regression: the report must not claim success with zero live replicas,
    and the component count must not be rebuilt from a dead replica."""
    world = make_world(seed=69)
    pair = deploy(world)
    engine = AdaptationEngine(world, pair)
    world.cluster.node("alpha").crash()
    world.cluster.node("beta").crash()

    def do():
        report = yield from engine.transition("lfr")
        return report

    report = world.run_process(do(), name="dead")
    assert report.success is False
    assert report.outcome == "degraded"
    assert report.component_count > 0
    assert all(r.error == "replica down" for r in report.replicas)


def test_fetch_failure_error_type():
    err = PackageFetchFailed("chunk 0 unanswered")
    assert "chunk 0" in str(err)


# -- in-flight agreement traffic across the swap ---------------------------------------


def test_checkpoint_buffered_across_transition_is_applied_not_dropped():
    """A PBR checkpoint caught behind the closed gate while the script
    swaps syncAfter to LFR carries state the client was already acked
    for — the new implementation must apply it, not reject it.  (Found
    by the 1000-mission stress campaign: dropping it loses an update
    when the primary then crashes and the stale backup promotes.)"""
    from repro.ftm.messages import PeerEnvelope

    world = make_world(seed=61)

    def scenario():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        engine = AdaptationEngine(world, pair)
        beta = pair.replica_on("beta")

        def racer():
            # land the checkpoint exactly where the race puts it: in the
            # gate buffer, while the script is rewiring the composite
            while beta.composite.gate_open:
                yield Timeout(5.0)
            envelope = PeerEnvelope(
                kind="checkpoint", request_id=7, client="c1",
                body={"state": {"total": 41, "processed": 7}, "result": 41},
            )
            world.network.send("alpha", "beta", "peer", envelope, size=256)

        world.sim.spawn(racer(), name="racer")
        report = yield from engine.transition("lfr")
        yield Timeout(500.0)  # let the buffered checkpoint drain
        return pair, report

    pair, report = world.run_process(scenario(), name="scenario")
    assert report.success
    assert pair.ftm == "lfr"
    # the late checkpoint crossed the swap and was applied by LfrSyncAfter
    assert world.trace.count("ftm", "late_peer_agreement") == 1
    assert world.trace.count("ftm", "checkpoint_applied") == 1
    assert world.trace.count("replica", "peer_error") == 0
    backup = pair.replica_on("beta").composite.component("server").implementation
    assert backup.application.total == 41
