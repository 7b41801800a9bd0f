"""Section 5.3 made measurable — consistency of distributed adaptation.

The paper argues (without numbers) that transitions are safe under
failure: local reconfigurations are transactional; a replica whose script
fails is killed (fail-silent) and the survivor continues master-alone; a
replica that crashes mid-transition is restarted in the configuration
logged on stable storage; requests buffered during quiescence are served
in the new configuration.

This harness turns each claim into a counted experiment over ``runs``
seeded repetitions.

Fault injection goes through the one injection API,
``FaultInjector.arm_transition_fault("script", "corrupt", node=...)`` —
the same call the transition-survival matrix
(:mod:`repro.eval.transition_matrix`) drives across every phase × kind
combination.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.adaptation_engine import AdaptationEngine
from repro.eval.format import render_table
from repro.exp import ExperimentSpec, ResultStore, Trial
from repro.exp import run as run_experiment
from repro.ftm import Client, deploy_ftm_pair
from repro.kernel import Timeout, World


def _run_one(seed: int) -> Dict:
    world = World(seed=seed)
    pair = world.run_scenario(
        lambda w: deploy_ftm_pair(w, "pbr", ["alpha", "beta"]),
        nodes=("alpha", "beta", "client"), name="deploy",
    )
    pair.enable_recovery(restart_delay=300.0)
    engine = AdaptationEngine(world, pair)
    client = Client(
        world, world.cluster.node("client"), "c1", pair.node_names(),
        timeout=2_000.0, max_attempts=10,
    )
    outcome = {
        "served_before": 0,
        "served_during": 0,
        "served_after": 0,
        "survivor_config": None,
        "recovered_config": None,
        "killed_replica": False,
    }

    def scenario():
        for _ in range(3):
            reply = yield from client.request(("add", 1))
            outcome["served_before"] += int(reply.ok)

        # issue a request that lands inside the transition window
        def during():
            yield Timeout(520.0)
            reply = yield from client.request(("add", 1))
            outcome["served_during"] += int(reply.ok)

        world.sim.spawn(during())

        # transition with a script failure injected on the slave
        world.faults.arm_transition_fault("script", "corrupt", node="beta")
        report = yield from engine.transition("lfr")
        outcome["killed_replica"] = any(r.killed for r in report.replicas)

        yield Timeout(8_000.0)  # reintegration window
        for _ in range(3):
            reply = yield from client.request(("add", 1))
            outcome["served_after"] += int(reply.ok)

        outcome["survivor_config"] = pair.ftm
        beta = pair.replica_on("beta")
        if beta.alive:
            outcome["recovered_config"] = type(
                beta.composite.component("syncBefore").implementation
            ).__name__
        return outcome

    world.run_process(scenario(), name="scenario")
    world.close()
    return outcome


def _trial(seed: int, _params: Mapping) -> Dict:
    """One seeded run of the injected-script-failure scenario."""
    return _run_one(seed)


def spec(runs: int = 5, base_seed: int = 4000) -> ExperimentSpec:
    """The Sec. 5.3 experiment: one cell, ``runs`` seeded repetitions."""
    return ExperimentSpec(
        name="consistency", trial=_trial,
        trials=(Trial(
            key="consistency", params={},
            seeds=tuple(base_seed + 11 * r for r in range(runs)),
        ),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Sec. 5.3 verdict dict from raw per-run outcomes."""
    outcomes = results["consistency"]
    return {
        "runs": len(outcomes),
        "outcomes": outcomes,
        "all_requests_served": all(
            o["served_before"] == 3 and o["served_during"] == 1 and o["served_after"] == 3
            for o in outcomes
        ),
        "all_killed_fail_silent": all(o["killed_replica"] for o in outcomes),
        "all_survivors_in_target": all(
            o["survivor_config"] == "lfr" for o in outcomes
        ),
        "all_recoveries_in_target": all(
            o["recovered_config"] == "LfrSyncBefore" for o in outcomes
        ),
    }


def generate(runs: int = 5, base_seed: int = 4000, jobs: int = 1,
             store: Optional[ResultStore] = None) -> Dict:
    """Run the fault-injection scenario over seeded repetitions."""
    result = run_experiment(spec(runs=runs, base_seed=base_seed),
                            jobs=jobs, store=store)
    return from_results(result.results)


def shape_checks(data: Dict) -> List[str]:
    """The Sec. 5.3 claims that must hold in every run."""
    problems = []
    for claim in (
        "all_requests_served",
        "all_killed_fail_silent",
        "all_survivors_in_target",
        "all_recoveries_in_target",
    ):
        if not data[claim]:
            problems.append(f"claim {claim} does not hold")
    return problems


def render(data: Dict) -> str:
    """A claim-by-claim verdict table."""
    rows = [
        ["no request lost across the failed transition", data["all_requests_served"]],
        ["failed-script replica killed (fail-silent)", data["all_killed_fail_silent"]],
        ["survivor completed the transition (target config)", data["all_survivors_in_target"]],
        ["crashed replica recovered in logged target config", data["all_recoveries_in_target"]],
    ]
    return render_table(
        ["Sec 5.3 consistency claim", f"holds in all {data['runs']} runs"],
        rows,
        title="Consistency of distributed adaptation under injected script failure",
    )
