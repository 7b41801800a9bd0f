#!/usr/bin/env python
"""A long-lived space system adapting its fault tolerance across mission phases.

The paper motivates agile adaptation with "long-lived space systems
(satellites and deep-space probes)": the fault model changes over a
mission (launch, cruise, orbit insertion, aging hardware), the FTMs that
will be needed years in cannot all be foreseen at launch, and ground
control (the System Manager) stays in the loop.

The scenario below runs the full closed loop on the simulated platform:

* **cruise** — crash faults only, ample resources: PBR protects the
  payload data handler;
* **radiation season** — the error observer sees TR comparison faults
  would be needed (ground announces hardware aging): *proactive*
  mandatory transition PBR → PBR⊕TR;
* **downlink degradation** — the bandwidth probe fires: mandatory
  transition to LFR⊕TR (checkpointing is unaffordable);
* **orbit-insertion (critical phase)** — ground proactively hardens to
  A&Duplex before the burn;
* **after the burn** — the restored downlink and the end of the critical
  phase each make a move merely *possible*: ground declines switching
  within A&Duplex and approves relaxing to PBR;
* **year 3: field update** — a brand-new FTM, developed on the ground
  after launch, is uplinked into the repository and deployed on-line —
  the agility the preprogrammed alternative cannot offer.
"""

from repro.core import (
    AdaptationEngine,
    MonitoringEngine,
    ResilienceManager,
    SystemManager,
)
from repro.core.transition_graph import _ctx
from repro.ftm import Client, deploy_ftm_pair, ftm_assembly
from repro.kernel import Fault, Timeout, World


def main() -> None:
    world = World(seed=7)
    world.add_nodes(["obc-a", "obc-b", "ground"])  # two on-board computers

    def deploy():
        pair = yield from deploy_ftm_pair(
            world, "pbr", ["obc-a", "obc-b"], assertion="counter-range"
        )
        return pair

    pair = world.run_process(deploy(), name="deploy")
    pair.enable_recovery(restart_delay=500.0)

    engine = AdaptationEngine(world, pair)
    monitoring = MonitoringEngine(world, ["obc-a", "obc-b"])
    ground_control = SystemManager()  # humans approve possible transitions
    resilience = ResilienceManager(
        world, engine, monitoring, _ctx(), system_manager=ground_control
    )
    monitoring.start()
    resilience.start()

    telemetry = Client(world, world.cluster.node("ground"), "telemetry",
                       pair.node_names(), timeout=2_000.0)

    def phase(title):
        print(f"\n[{world.now:9.0f} ms] === {title} === (FTM: {pair.ftm})")

    def mission():
        phase("cruise: crash faults only")
        for sample in range(3):
            reply = yield from telemetry.request(("add", 1))
            assert reply.ok

        phase("radiation season: ground reports hardware aging (FT change)")
        resilience.notify_event("hardware-aging")   # proactive!
        yield Timeout(3_000.0)
        print(f"[{world.now:9.0f} ms] proactive transition done -> {pair.ftm}")
        assert pair.ftm == "pbr+tr"

        # a real bit flip hits the payload computer: TR masks it
        world.faults.arm(Fault("value", "obc-a"))
        reply = yield from telemetry.request(("add", 1))
        assert reply.ok and reply.value == 4
        print(f"[{world.now:9.0f} ms] transient fault masked by TR "
              f"(value still correct: {reply.value})")

        phase("downlink degradation: the bandwidth probe fires (R change)")
        world.network.set_link("obc-a", "obc-b", bandwidth=500.0)
        yield Timeout(4_000.0)
        print(f"[{world.now:9.0f} ms] mandatory transition done -> {pair.ftm}")
        assert pair.ftm == "lfr+tr"

        phase("orbit insertion: critical phase starts (FT change, proactive)")
        resilience.notify_event("critical-phase-start")
        yield Timeout(3_000.0)
        print(f"[{world.now:9.0f} ms] hardened for the burn -> {pair.ftm}")
        assert pair.ftm in ("a+lfr", "a+pbr")

        reply = yield from telemetry.request(("add", 1))
        assert reply.ok

        phase("burn complete: downlink restored; relaxing needs ground approval")
        world.network.set_link("obc-a", "obc-b", bandwidth=12_500.0)
        yield Timeout(1_000.0)  # the bandwidth probe notices the recovery
        resilience.notify_event("critical-phase-end")
        yield Timeout(2_000.0)
        assert pair.ftm in ("a+lfr", "a+pbr")  # nothing moved automatically
        for proposal in ground_control.pending:
            print(f"[{world.now:9.0f} ms] proposal queued for ground "
                  f"({proposal.trigger.event}): "
                  f"{proposal.source_ftm} -> {proposal.target_ftm}")
        assert [p.target_ftm for p in ground_control.pending] == ["a+pbr", "pbr"]
        # checkpointing is affordable again, but the burn is over: ground
        # declines the move within A&Duplex and approves dropping it
        yield from resilience.execute_pending(approve=False)
        report = yield from resilience.execute_pending(approve=True)
        print(f"[{world.now:9.0f} ms] ground declined the first, approved the "
              f"second -> {pair.ftm} ({report.per_replica_ms:.0f} ms/replica)")
        assert pair.ftm == "pbr"

        phase("year 3: uplink of an FTM unknown at launch")

        def field_ftm(role, peer, app="counter", assertion="always-true",
                      composite="ftm", **kwargs):
            # ground developed a hardened PBR variant after launch; here it
            # reuses catalog bricks, but it could ship brand-new components
            return ftm_assembly("pbr+tr", role=role, peer=peer, app=app,
                                assertion=assertion, composite=composite)

        engine.repository.register_ftm("pbr-gen2", field_ftm)
        report = yield from engine.transition("pbr-gen2")
        print(f"[{world.now:9.0f} ms] field-update FTM deployed on-line in "
              f"{report.per_replica_ms:.0f} ms/replica -> {pair.ftm}")

        reply = yield from telemetry.request(("get",))
        print(f"[{world.now:9.0f} ms] payload counter intact across "
              f"{len(engine.history)} transitions: {reply.value}")
        assert reply.value == 5

    world.run_process(mission(), name="mission")
    print("\nmission complete;",
          f"{len([r for r in engine.history if r.success])} successful "
          "on-line transitions, 0 requests lost")


if __name__ == "__main__":
    main()
