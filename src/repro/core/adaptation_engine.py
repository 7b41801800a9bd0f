"""The Adaptation Engine (the *hot* side of Figure 7).

Executes fine-grained differential transitions between FTMs on a running
pair of replicas:

1. **deploy package** — fetch the transition package from the repository
   and unpack/instantiate its components (service continues meanwhile);
2. **execute transition script** — close the composite gate, drain
   in-flight requests (Sec. 5.3 quiescence), run the script through the
   transactional interpreter;
3. **remove residual package** — clean up staging leftovers and reopen
   the gate.

The per-phase durations of step 1–3 are what Figure 9 decomposes and
their sum, per replica, is a Table 3 cell.

Distributed consistency (Sec. 5.3): each replica reconfigures under a
fail-silent wrapper — a ScriptException (the transaction already rolled
back) **kills the local replica**, the surviving peer's failure detector
promotes it to master-alone, and the target configuration is logged to
stable storage on first success so a restarted replica rejoins in the
configuration its peer reached.

The transition path itself tolerates the fault model of Table 1:

* when the repository is hosted on a node (``Repository.attach``), the
  package travels over the lossy network in sized chunks with a
  per-package checksum, per-chunk timeouts and capped exponential-backoff
  retries — omission faults delay the fetch, corruptions are detected and
  re-fetched, never installed;
* when the target FTM cannot be installed anywhere (fetch exhausted,
  script rollback on every replica, all replicas down) the engine
  **degrades instead of raising**: the pair keeps serving on the source
  FTM, the report carries ``degraded=True`` plus the next-best reachable
  FTM from :func:`repro.core.consistency.rank_ftms`, and a quarantine
  loop restarts any replica the fail-silent wrapper killed.
"""

from __future__ import annotations

import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.errors import PackageFetchFailed, TransitionFailed
from repro.core.repository import PACKAGE_PORT, Repository
from repro.core.transition import (
    PackageChunkRequest,
    TransitionPackage,
    package_checksum,
)
from repro.ftm.factory import FTMPair
from repro.ftm.replica import Replica
from repro.kernel.errors import NodeDown
from repro.kernel.sim import TIMEOUT, Timeout, all_of
from repro.script.ast import Path, Remove, TransitionScript
from repro.script.errors import RollbackFailed, ScriptException
from repro.script.interpreter import ScriptInterpreter


@dataclass
class ReplicaTransitionReport:
    """Per-replica timing and outcome of one transition."""

    node: str
    success: bool = False
    killed: bool = False
    crashed: bool = False
    deploy_ms: float = 0.0
    script_ms: float = 0.0
    remove_ms: float = 0.0
    fetch_attempts: int = 0
    corrupt_fetches: int = 0
    error: Optional[str] = None

    @property
    def total_ms(self) -> float:
        return self.deploy_ms + self.script_ms + self.remove_ms

    def phase_shares(self) -> Dict[str, float]:
        """Fraction of the total spent in each phase (Figure 9)."""
        total = self.total_ms or 1.0
        return {
            "deploy_package": self.deploy_ms / total,
            "execute_script": self.script_ms / total,
            "remove_package": self.remove_ms / total,
        }


@dataclass
class TransitionReport:
    """Outcome of one distributed transition."""

    source_ftm: str
    target_ftm: str
    component_count: int
    replicas: List[ReplicaTransitionReport] = field(default_factory=list)
    degraded: bool = False               #: fell back to the source FTM
    fallback_ftm: Optional[str] = None   #: next-best reachable FTM (degraded mode)

    @property
    def success(self) -> bool:
        return any(r.success for r in self.replicas)

    @property
    def outcome(self) -> str:
        """``success`` / ``degraded`` / ``failed`` / ``noop``."""
        if self.success:
            return "success"
        if self.degraded:
            return "degraded"
        if not self.replicas:
            return "noop"
        return "failed"

    @property
    def per_replica_ms(self) -> float:
        """The Table 3 figure: transition time on one (successful) replica."""
        done = [r.total_ms for r in self.replicas if r.success]
        return sum(done) / len(done) if done else 0.0


#: How long a replica the fail-silent wrapper killed stays down before the
#: degraded path restarts and reintegrates it (ms).
QUARANTINE_DELAY = 300.0

#: The report timing each phase counts towards.  Fetch and deploy are one
#: step of Sec. 5.3 ("deploy package"), booked when deploy completes.
_TIMING = {"fetch": "deploy_ms", "deploy": "deploy_ms",
           "script": "script_ms", "remove": "remove_ms"}


class AdaptationEngine:
    """Runs transitions on an :class:`FTMPair` using a :class:`Repository`."""

    def __init__(
        self,
        world,
        pair: FTMPair,
        repository: Optional[Repository] = None,
        context=None,
    ):
        self.world = world
        self.pair = pair
        self.repository = repository or Repository()
        #: optional :class:`SystemContext` consulted for degraded fallback
        self.context = context
        self.history: List[TransitionReport] = []
        self.degraded_transitions = 0
        self.quarantine_recoveries = 0
        self._fetch_seq = 0

    # -- public API --------------------------------------------------------------

    def transition(self, target_ftm: str, context=None) -> Generator:
        """Execute source→target on both replicas in parallel (generator).

        Returns a :class:`TransitionReport`.  When the transition fails on
        every replica the engine *degrades* instead of raising: the pair
        keeps serving on the source FTM, killed replicas are quarantined
        and reintegrated, and the report names the next-best reachable
        FTM for the current ``context`` (falling back to the source FTM
        when no context is known).
        """
        source_ftm = self.pair.ftm
        report = TransitionReport(
            source_ftm=source_ftm,
            target_ftm=target_ftm,
            component_count=0,
        )
        if source_ftm == target_ftm:
            self.history.append(report)
            return report

        # Build every replica-side package up front (and exactly once): the
        # component count must not be re-derived later from a replica that
        # may be down by then.
        packages: Dict[str, TransitionPackage] = {}
        for replica in self.pair.replicas:
            if replica.alive:
                packages[replica.node.name] = self._package_for(
                    replica, source_ftm, target_ftm
                )
        if packages:
            report.component_count = next(iter(packages.values())).component_count
        else:
            # no replica alive: probe the repository for the manifest only
            report.component_count = self._package_for(
                self.pair.replicas[0], source_ftm, target_ftm
            ).component_count

        yield from self._on_live_replicas(
            report, "transition",
            lambda _index, replica: self._transition_replica(
                replica, packages[replica.node.name], target_ftm
            ),
        )
        if report.success:
            self._reconcile_diverged(report)
        self.world.trace.record(
            "adaptation",
            "transition_complete" if report.success else "transition_failed",
            source=source_ftm,
            target=target_ftm,
        )
        self.history.append(report)
        if not report.success:
            self._enter_degraded_mode(report, context or self.context)
            self._quarantine_killed(report)
        return report

    def _on_live_replicas(self, report: TransitionReport, label: str,
                          reconfigure) -> Generator:
        """Run ``reconfigure(index, replica)`` on every live replica in
        parallel; a replica that is down is reported as such.  The
        per-replica reports join ``report`` once all have finished."""
        processes = []
        for index, replica in enumerate(self.pair.replicas):
            name = replica.node.name
            if replica.alive:
                processes.append(self.world.sim.spawn(
                    reconfigure(index, replica), name=f"{label}-{name}"
                ))
            else:
                report.replicas.append(
                    ReplicaTransitionReport(node=name, error="replica down")
                )
        replica_reports = yield from all_of(self.world.sim, processes)
        report.replicas.extend(r for r in replica_reports if r is not None)

    def update_application(
        self, new_app: str, transfer_state: bool = True
    ) -> Generator:
        """Deploy a new application version on-line (the paper's A-change).

        The same differential machinery handles it: only the ``server``
        component (a *common part* for FTM transitions, but the variable
        part of an application update) is replaced, under quiescence, with
        an optional state transfer from the old version to the new one.
        Returns a :class:`TransitionReport` (source/target carry
        ``ftm@app`` labels).
        """
        old_app = self.pair.app
        report = TransitionReport(
            source_ftm=f"{self.pair.ftm}@{old_app}",
            target_ftm=f"{self.pair.ftm}@{new_app}",
            component_count=1,
        )
        if new_app == old_app:
            self.history.append(report)
            return report

        from repro.core.transition import build_package

        def update(index: int, replica: Replica) -> Generator:
            package = build_package(
                report.source_ftm,
                report.target_ftm,
                self.pair.spec_for(index, app=old_app),
                self.pair.spec_for(index, app=new_app),
                self.pair.composite_name,
            )
            carried = {}

            def capture(rep):
                if transfer_state:
                    try:
                        carried["state"] = yield from rep.control_internal("get_state")
                    except Exception:  # noqa: BLE001 - app without state access
                        carried.pop("state", None)
                return None
                yield  # pragma: no cover - generator marker

            def restore(rep):
                if "state" in carried:
                    try:
                        yield from rep.control_internal("put_state", carried["state"])
                    except Exception:  # noqa: BLE001 - incompatible state shape
                        pass
                return None
                yield  # pragma: no cover - generator marker

            def on_success() -> None:
                if self.pair.app != new_app:
                    self.pair.app = new_app
                    self.pair._log_configuration(self.pair.ftm)

            return self._run_package(
                replica,
                package,
                pre_script=capture,
                post_script=restore,
                on_success=on_success,
            )

        yield from self._on_live_replicas(report, "app-update", update)
        self.history.append(report)
        if not report.success:
            raise TransitionFailed(
                f"application update {old_app} -> {new_app} failed on every replica"
            )
        self.world.trace.record(
            "adaptation", "application_updated", old=old_app, new=new_app
        )
        return report

    # -- degraded mode and quarantine ---------------------------------------------------

    def _enter_degraded_mode(self, report: TransitionReport, context) -> None:
        """The transition failed everywhere: keep serving on the source FTM.

        Nothing was committed (every replica either never touched its
        architecture or transactionally rolled back), so the source
        configuration is still the live one.  The report records the
        next-best *valid and reachable* FTM for the current context as the
        recommended fallback target.
        """
        from repro.core.consistency import next_best_ftm

        report.degraded = True
        fallback = report.source_ftm
        if context is not None:
            candidate = next_best_ftm(
                context,
                exclude=(report.target_ftm,),
                reachable=self.repository.knows,
            )
            if candidate is not None:
                fallback = candidate
        report.fallback_ftm = fallback
        self.degraded_transitions += 1
        self.world.trace.record(
            "adaptation",
            "transition_degraded",
            source=report.source_ftm,
            target=report.target_ftm,
            serving=report.source_ftm,
            next_best=fallback,
        )

    def _reconcile_diverged(self, report: TransitionReport) -> None:
        """Fail-silence replicas that missed a transition their peer made.

        A replica whose fetch exhausted (benign, nothing mutated) while the
        peer reached the target would leave the pair in a mixed
        configuration; Sec. 5.3's rule applies: kill it, let recovery (or
        the quarantine loop) reintegrate it in the logged target
        configuration.
        """
        for replica_report in report.replicas:
            if replica_report.success or replica_report.killed or replica_report.crashed:
                continue
            replica = self.pair.replica_on(replica_report.node)
            if not replica.alive:
                continue
            replica_report.killed = True
            self.world.trace.record(
                "adaptation",
                "replica_diverged_killed",
                node=replica_report.node,
                reason=replica_report.error or "transition incomplete",
            )
            replica.on_crash_cleanup()
            replica.node.crash()

    def _quarantine_killed(self, report: TransitionReport) -> None:
        """Restart and reintegrate replicas the fail-silent wrapper killed.

        Runs on the degraded path only: when the transition failed
        everywhere, a script that killed both replicas would otherwise
        strand the service forever.  (When a peer succeeded, the pair's
        own recovery loop — when enabled — already covers reintegration.)
        """
        if self.pair.recovery_enabled:
            return
        for replica_report in report.replicas:
            if not (replica_report.killed or replica_report.crashed):
                continue
            replica = self.pair.replica_on(replica_report.node)
            if replica.node.is_up:
                continue
            self.world.sim.spawn(
                self._requarantine(replica),
                name=f"quarantine-{replica_report.node}",
            )

    def _requarantine(self, replica: Replica) -> Generator:
        yield Timeout(QUARANTINE_DELAY)
        if replica.node.is_up or replica.alive:
            return
        self.world.trace.record(
            "adaptation", "quarantine_restart", node=replica.node.name
        )
        replica.node.restart()
        yield from self.pair._reintegrate(replica)
        self.quarantine_recoveries += 1

    # -- per-replica execution ----------------------------------------------------------

    def _package_for(
        self, replica: Replica, source_ftm: str, target_ftm: str
    ) -> TransitionPackage:
        return self.repository.transition_package(
            *self._package_key(replica, source_ftm, target_ftm)
        )

    def _package_key(self, replica: Replica, source_ftm: str,
                     target_ftm: str) -> tuple:
        """The positional repository key (also the networked wire key)."""
        return (
            source_ftm,
            target_ftm,
            replica.role() if replica.role() not in ("?", "gone") else "master",
            next(r.node.name for r in self.pair.replicas if r is not replica),
            self.pair.app,
            self.pair.assertion,
            self.pair.composite_name,
        )

    def _transition_replica(
        self, replica: Replica, package: TransitionPackage, target_ftm: str
    ) -> Generator:
        def on_success() -> None:
            # Sec. 5.3: "upon successful completion of the reconfiguration
            # of ONE replica, the current configuration is logged on stable
            # storage" — a peer that dies mid-transition recovers into the
            # configuration this replica reached.
            if self.pair.ftm != target_ftm:
                self.pair.ftm = target_ftm
                self.pair._log_configuration(target_ftm)

        report = yield from self._run_package(replica, package, on_success=on_success)
        if report.success:
            replica.deployed_ftm = target_ftm
        return report

    # -- phase boundaries ------------------------------------------------------------------

    def _phases(self, node, report: ReplicaTransitionReport):
        """The ``with phase(name):`` blocks of one replica's transition.

        A block announces its phase's ``enter`` and ``leave`` on the
        world's boundary stream (:meth:`Trace.announce`) — ``leave``
        always, marked ``failed`` when the phase did not complete: what a
        listener opened on ``enter`` it closes on ``leave``.  The
        announcements' instants are the only stopwatch: a completed
        deploy, script or remove books the time since the first ``enter``
        counted towards the same report timing, so ``deploy_ms`` is one
        subtraction (last deploy ``leave`` minus first fetch ``enter``),
        never a sum of spans.
        """
        announce = self.world.trace.announce
        remote = self.repository.host if self._networked() else None
        started: Dict[str, float] = {}

        @contextmanager
        def phase(name: str):
            timing = _TIMING[name]
            entered = announce(name, "enter", node, remote=remote)
            start = started.setdefault(timing, entered.time)
            try:
                yield
            except BaseException as failure:
                announce(name, "leave", node, failed=type(failure).__name__)
                raise
            left = announce(name, "leave", node)
            if name != "fetch":
                setattr(report, timing, left.time - start)

        return phase

    # -- networked package fetch --------------------------------------------------------

    def _networked(self) -> bool:
        host = self.repository.host
        return host is not None and host in self.world.cluster.nodes

    def _fetch_package(
        self, replica: Replica, package: TransitionPackage,
        report: ReplicaTransitionReport,
    ) -> Generator:
        """Bring the package payload to the replica's node.

        Unhosted repository: the legacy flat local cost.  Hosted: the blob
        crosses the network in chunks with per-chunk timeout/retransmit,
        capped exponential backoff (deterministic jitter from a named
        substream) and an end-to-end checksum; a corrupted payload is
        re-fetched, never installed.  Raises :class:`PackageFetchFailed`
        when the retry budget is exhausted.
        """
        node = replica.node
        costs = self.world.costs
        if not self._networked():
            yield node.compute_charge(costs.package_fetch / node.disk_speed)
            report.fetch_attempts = 1
            return

        network = self.world.network
        faults = self.world.faults
        announce = self.world.trace.announce
        rand = self.world.sim.random.substream(f"fetch.{node.name}")
        key = self._package_key(replica, package.source_ftm, package.target_ftm)
        expected_checksum = package_checksum(package)
        blob_size = max(1, package.size)
        total_chunks = max(1, math.ceil(blob_size / costs.package_chunk_bytes))
        self._fetch_seq += 1
        port = f"package-{node.name}-{self._fetch_seq}"
        mailbox = network.bind(node.name, port)

        try:
            for integrity_attempt in range(costs.fetch_integrity_attempts):
                data = bytearray()
                for index in range(total_chunks):
                    chunk = yield from self._fetch_chunk(
                        node, key, index, port, mailbox, rand, report
                    )
                    payload = faults.filter_value(node.name, chunk.data)
                    data.extend(announce(
                        "fetch", "chunk", node, payload=payload, rand=rand
                    ).payload)
                if (len(data) == blob_size
                        and zlib.crc32(bytes(data)) == expected_checksum):
                    self.world.trace.record(
                        "adaptation",
                        "package_fetched",
                        node=node.name,
                        package=package.name,
                        chunks=total_chunks,
                        attempts=report.fetch_attempts,
                    )
                    yield node.compute_charge(
                        costs.package_checksum / node.disk_speed
                    )
                    return
                report.corrupt_fetches += 1
                self.world.trace.record(
                    "adaptation",
                    "fetch_corrupt_detected",
                    node=node.name,
                    package=package.name,
                    attempt=integrity_attempt + 1,
                )
            raise PackageFetchFailed(
                f"{package.name}: checksum still failing after "
                f"{costs.fetch_integrity_attempts} fetches"
            )
        finally:
            network.unbind(node.name, port)

    def _fetch_chunk(
        self, node, key: tuple, index: int, port: str, mailbox, rand, report
    ) -> Generator:
        """One chunk with timeout/retransmit and capped backoff."""
        costs = self.world.costs
        network = self.world.network
        backoff = costs.fetch_retry_base
        request = PackageChunkRequest(
            package_key=key, chunk=index, reply_to=node.name, reply_port=port
        )
        for attempt in range(costs.fetch_chunk_attempts):
            report.fetch_attempts += 1
            network.send(node.name, self.repository.host, PACKAGE_PORT,
                         request, size=96)
            deadline = self.world.now + costs.fetch_timeout
            while True:
                remaining = max(0.0, deadline - self.world.now)
                incoming = yield mailbox.get(timeout=remaining)
                if incoming is TIMEOUT:
                    break
                chunk = incoming.payload
                if chunk.error is not None:
                    raise PackageFetchFailed(
                        f"repository rejected the fetch: {chunk.error}"
                    )
                if chunk.chunk == index:
                    return chunk
                # stale reply from an earlier retransmission: keep waiting
            delay = rand.jitter(backoff, 0.25)
            backoff = min(backoff * 2.0, costs.fetch_retry_cap)
            self.world.trace.record(
                "adaptation",
                "fetch_retry",
                node=node.name,
                chunk=index,
                attempt=attempt + 1,
                backoff_ms=round(delay, 3),
            )
            yield Timeout(delay)
        raise PackageFetchFailed(
            f"chunk {index} unanswered after {costs.fetch_chunk_attempts} attempts"
        )

    # -- the replica-side sequence ---------------------------------------------------------

    def _run_package(
        self,
        replica: Replica,
        package: TransitionPackage,
        pre_script=None,
        post_script=None,
        on_success=None,
    ) -> Generator:
        """One replica-side reconfiguration: fetch, deploy, script, remove."""
        node = replica.node
        costs = self.world.costs
        trace = self.world.trace
        report = ReplicaTransitionReport(node=node.name)
        phase = self._phases(node, report)

        try:
            # -- step 1: deploy the transition package ---------------------------
            while True:
                with phase("fetch"):
                    yield from self._fetch_package(replica, package, report)
                with phase("deploy"):
                    yield node.compute_charge(
                        (costs.package_unpack_base
                         + costs.package_unpack_component
                         * package.component_count) / node.disk_speed
                    )
                    if not trace.announce("deploy", "payload", node).failed:
                        break
                    # the unpacked payload fails its checksum: discard and
                    # re-fetch — a corrupted package is never installed
                    report.corrupt_fetches += 1
                    trace.record(
                        "adaptation",
                        "unpack_corrupt_detected",
                        node=node.name,
                        package=package.name,
                    )
            trace.record(
                "adaptation",
                "package_deployed",
                node=node.name,
                package=package.name,
                components=package.component_count,
            )

            # -- step 2: execute the reconfiguration script ------------------------
            with phase("script"):
                script = package.script
                if trace.announce("script", "script", node).failed:
                    script = _tampered(script)
                composite = replica.composite
                if composite is None:
                    raise NodeDown(node.name, "transition")
                yield from composite.drain()  # Sec. 5.3 request consistency
                try:
                    if pre_script is not None:
                        yield from pre_script(replica)
                    interpreter = ScriptInterpreter(replica.runtime)
                    yield from interpreter.execute(script, package.spec_index())
                    if post_script is not None:
                        yield from post_script(replica)
                finally:
                    composite.open_gate()

            # -- step 3: remove the residual package -------------------------------
            with phase("remove"):
                yield node.compute_charge(
                    (costs.package_remove_base
                     + costs.package_remove_component
                     * package.component_count) / node.disk_speed
                )
                if trace.announce("remove", "residue", node).failed:
                    # residual cleanup is best-effort: the transition already
                    # committed, leftover staging files cost disk, not safety
                    report.error = "residual cleanup failed (leftovers kept)"
                    trace.record(
                        "adaptation",
                        "residual_cleanup_failed",
                        node=node.name,
                        package=package.name,
                    )

            report.success = True
            if on_success is not None:
                on_success()
            trace.record(
                "adaptation",
                "replica_transitioned",
                node=node.name,
                package=package.name,
            )
            return report

        except (ScriptException, RollbackFailed) as failure:
            # Fail-silent wrapper (Sec. 5.3): the transaction rolled back
            # (or worse); kill the replica so the FTM cannot linger in an
            # inconsistent distributed configuration.
            report.error = str(failure)
            report.killed = True
            trace.record(
                "adaptation",
                "replica_killed",
                node=node.name,
                reason=type(failure).__name__,
            )
            replica.on_crash_cleanup()
            node.crash()
            return report

        except PackageFetchFailed as failure:
            # The package never arrived; nothing was mutated — the replica
            # keeps serving in its source configuration.
            report.error = str(failure)
            trace.record(
                "adaptation",
                "fetch_exhausted",
                node=node.name,
                package=package.name,
                attempts=report.fetch_attempts,
            )
            return report

        except NodeDown as failure:
            # A crash fault landed mid-transition (fail-stop): volatile
            # state is gone; recovery/quarantine will reintegrate the node
            # in whatever configuration ends up logged.
            report.error = str(failure)
            report.crashed = True
            trace.record(
                "adaptation",
                "replica_crashed_mid_transition",
                node=node.name,
                package=package.name,
            )
            replica.on_crash_cleanup()
            return report


def _tampered(script: TransitionScript) -> TransitionScript:
    """Append a statement that must fail (removing a ghost component)."""
    return TransitionScript(
        name=script.name + "-tampered",
        statements=script.statements
        + (Remove(Path(_first_composite(script), "ghost-component")),),
    )


def _first_composite(script: TransitionScript) -> str:
    for statement in script.statements:
        path = getattr(statement, "path", None) or getattr(statement, "source", None)
        if path is not None:
            return path.composite
    return "ftm"
