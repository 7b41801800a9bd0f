"""Statistical fault-injection campaigns.

Beyond the paper's per-scenario demonstrations, a resilience claim wants
statistics: across many seeded missions with randomised crash and value
faults — and adaptations happening *while* faults strike — the system
must never lose or duplicate a request, and must mask every value fault
the deployed FTM's model covers.

One mission = deploy PBR⊕TR, run a steady workload, and along the way:
a random master-or-slave crash (with recovery), a random burst of
transient value faults, and one on-line transition.  The campaign
shards the mission seeds into cells of ``cell_size`` missions and reduces
each cell to counts the moment it completes, so peak memory is bounded by
the shard size whatever the mission count, a killed campaign resumes from
its finished shards, and the Wilson CIs come from the streamed counts
alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.eval.mission import run_solo
from repro.eval.stats import format_interval, wilson_interval
from repro.exp import ExperimentSpec, ResultStore, Trial
from repro.exp import run as run_experiment

if TYPE_CHECKING:
    from repro.kernel import WorldTask


@dataclass
class MissionOutcome:
    seed: int
    requests: int = 0
    all_ok: bool = False
    final_value: int = 0
    expected_value: int = 0
    masked_faults: int = 0
    injected_faults: int = 0
    crashes: int = 0
    promotions: int = 0
    reintegrations: int = 0
    transitioned_to: str = ""

    @property
    def exactly_once(self) -> bool:
        return self.final_value == self.expected_value

    @property
    def clean(self) -> bool:
        return self.all_ok and self.exactly_once


def mission_task(seed: int, requests: int = 30) -> WorldTask:
    """One randomised mission as an unrun :class:`WorldTask`.

    The task's result is the mission outcome as a plain dict (JSON-safe
    for the result store) with the fields of :class:`MissionOutcome`.
    The platform is three hosts on default links.
    """
    from repro.app.workloads import constant
    from repro.core.adaptation_engine import AdaptationEngine
    from repro.ftm import Client, deploy_ftm_pair
    from repro.kernel import Timeout, World, WorldTask

    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    rng = world.sim.random.substream("campaign")
    outcome = MissionOutcome(seed=seed, requests=requests, expected_value=requests)

    def scenario():
        pair = yield from deploy_ftm_pair(
            world, "pbr+tr", ["alpha", "beta"], assertion="counter-range"
        )
        pair.enable_recovery(restart_delay=300.0)
        engine = AdaptationEngine(world, pair)
        client = Client(
            world, world.cluster.node("client"), "c1", pair.node_names(),
            timeout=4_000.0, max_attempts=10,
        )

        # randomised adversity, scheduled inside the workload window
        span = requests * 120.0
        victim = rng.choice(["alpha", "beta"])
        world.faults.schedule_crash(
            world.cluster.node(victim), at=world.now + rng.uniform(0.3, 0.7) * span
        )
        # isolated transient faults (the TR fault model: at most one fault
        # per request) — separate single-shot windows, far enough apart
        # that they always hit different requests
        fault_node = rng.choice(["alpha", "beta"])
        first_fault = world.now + rng.uniform(0.1, 0.2) * span
        for shot in range(rng.randint(1, 2)):
            # bounded window: a shot that finds its node idle (e.g. a
            # backup that computes nothing) expires instead of lingering
            # and double-striking the first request after a promotion
            start = first_fault + shot * 900.0
            world.faults.arm_transient(
                fault_node,
                probability=1.0,
                start=start,
                end=start + 400.0,
                budget=1,
            )
        target = rng.choice(["lfr+tr", "pbr+tr", "a+pbr"])

        def adapt():
            yield Timeout(rng.uniform(0.4, 0.6) * span)
            if pair.ftm != target:
                try:
                    yield from engine.transition(target)
                except Exception:  # noqa: BLE001 - a crash can race the swap
                    pass

        world.sim.spawn(adapt())

        result = yield from constant(world, client, count=requests, period_ms=120.0)
        yield Timeout(8_000.0)  # recovery tail

        outcome.all_ok = result.all_ok
        outcome.final_value = result.replies[-1].value if result.replies else -1
        outcome.masked_faults = world.trace.count("ftm", "tr_masked")
        outcome.injected_faults = world.trace.count("fault", "value_injected")
        outcome.crashes = world.trace.count("node", "crash")
        outcome.promotions = world.trace.count("ftm", "promoted")
        outcome.reintegrations = pair.reintegrations
        outcome.transitioned_to = pair.ftm
        return asdict(outcome)

    return WorldTask(world, scenario(), name="mission")


def _trial(seed: int, params: Mapping) -> Dict:
    """One mission as a plain dict (JSON-safe for the result store)."""
    return run_solo(mission_task(seed, requests=params["requests"]))


#: Missions per shard cell in the sharded campaign spec.
SHARD_CELL_SIZE = 100


def _reduce_shard(values: List[Dict]) -> Dict:
    """Collapse one shard's mission outcomes to streaming counts."""
    outcomes = [MissionOutcome(**raw) for raw in values]
    return {
        "missions": len(outcomes),
        "clean": sum(1 for o in outcomes if o.clean),
        "exactly_once": sum(1 for o in outcomes if o.exactly_once),
        "injected": sum(o.injected_faults for o in outcomes),
        "masked": sum(o.masked_faults for o in outcomes),
        "crashes": sum(o.crashes for o in outcomes),
        "promotions": sum(o.promotions for o in outcomes),
        "reintegrations": sum(o.reintegrations for o in outcomes),
        "dirty_seeds": [o.seed for o in outcomes if not o.clean],
    }


def sharded_spec(missions: int = 10000, base_seed: int = 5000,
                 requests: int = 30,
                 cell_size: int = SHARD_CELL_SIZE) -> ExperimentSpec:
    """The streaming campaign: missions sharded into reduced cells.

    Mission ``m`` runs seed ``base_seed + 101·m`` whatever the shard
    size, so ``cell_size`` changes how missions are stored and
    aggregated, never which missions run.
    """
    seeds = [base_seed + 101 * m for m in range(missions)]
    trials = tuple(
        Trial(
            key=f"shard-{start // cell_size:05d}",
            params={"requests": requests},
            seeds=tuple(seeds[start:start + cell_size]),
        )
        for start in range(0, missions, cell_size)
    )
    return ExperimentSpec(name="campaign-sharded", trial=_trial,
                          trials=trials, reduce=_reduce_shard)


def from_shard_results(results: Dict) -> Dict:
    """Aggregate streamed per-shard counts into the campaign summary."""
    shards = list(results.values())
    missions = sum(s["missions"] for s in shards)
    clean = sum(s["clean"] for s in shards)
    exactly_once = sum(s["exactly_once"] for s in shards)
    injected = sum(s["injected"] for s in shards)
    masked = sum(s["masked"] for s in shards)
    return {
        "missions": missions,
        "shards": len(shards),
        "clean_missions": clean,
        "exactly_once_missions": exactly_once,
        "total_crashes": sum(s["crashes"] for s in shards),
        "total_injected": injected,
        "total_masked": masked,
        "total_promotions": sum(s["promotions"] for s in shards),
        "total_reintegrations": sum(s["reintegrations"] for s in shards),
        "dirty_seeds": [seed for s in shards for seed in s["dirty_seeds"]],
        "masking_rate": masked / injected if injected else None,
        "masking_ci95": list(wilson_interval(min(masked, injected), injected)),
        "exactly_once_rate": exactly_once / missions if missions else None,
        "exactly_once_ci95": list(wilson_interval(exactly_once, missions)),
    }


def generate_sharded(missions: int = 10000, base_seed: int = 5000,
                     requests: int = 30, jobs: int = 1,
                     store: Optional[ResultStore] = None,
                     cell_size: int = SHARD_CELL_SIZE) -> Dict:
    """Run the sharded campaign and aggregate the streamed counts."""
    result = run_experiment(
        sharded_spec(missions=missions, base_seed=base_seed,
                     requests=requests, cell_size=cell_size),
        jobs=jobs, store=store,
    )
    return from_shard_results(result.results)


def shard_shape_checks(data: Dict) -> List[str]:
    """The resilience claims the sharded campaign must uphold."""
    problems: List[str] = []
    if data["clean_missions"] != data["missions"]:
        problems.append(
            "missions with lost/duplicated work: seeds "
            f"{data['dirty_seeds'][:20]}"
        )
    if data["total_crashes"] < data["missions"]:
        problems.append("campaign injected fewer crashes than missions")
    if data["total_masked"] < data["total_injected"] * 0.5:
        problems.append(
            f"too few masked faults ({data['total_masked']} of "
            f"{data['total_injected']} injected)"
        )
    return problems


def render_sharded(data: Dict) -> str:
    """The aggregate campaign summary (per-mission tables don't scale)."""
    lines = [
        f"Fault-injection campaign: {data['missions']} randomised missions "
        f"in {data['shards']} shards (streamed counts)",
        f"  clean missions: {data['clean_missions']}/{data['missions']}; "
        f"crashes {data['total_crashes']}, faults masked "
        f"{data['total_masked']}/{data['total_injected']}, "
        f"promotions {data['total_promotions']}, "
        f"reintegrations {data['total_reintegrations']}",
        f"  masking rate {_rate(data['masking_rate'])} "
        f"CI95 {format_interval(*data['masking_ci95'])}; "
        f"exactly-once rate {_rate(data['exactly_once_rate'])} "
        f"CI95 {format_interval(*data['exactly_once_ci95'])}",
    ]
    if data["dirty_seeds"]:
        lines.append(f"  DIRTY mission seeds: {data['dirty_seeds'][:20]}")
    return "\n".join(lines)


def _rate(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"
