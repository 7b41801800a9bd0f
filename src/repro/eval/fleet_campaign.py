"""Fleet-scale campaigns: placement × churn grids over whole fleets.

One fleet mission = generate a topology, place many FTM-protected apps
under a placement policy, drive every app with a seeded open-loop
workload while a churn schedule takes hosts down and up, and let the
:class:`~repro.fleet.manager.FleetResilienceManager` re-derive every
pair's (FT, A, R) context from the *shared* host/link utilisation —
transitions included.  The campaign shards missions into
:class:`~repro.exp.ExperimentSpec` cells over a (placement policy ×
churn rate) grid, so it runs unchanged on every executor backend
(serial, persistent local pool, remote workers) with
byte-identical stores.

Every mission outcome carries a ``trace_digest`` — a stable hash of the
world's full event trace — so store byte-identity across backends also
certifies event-order identity, not just equal summary counts.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.eval.format import render_table
from repro.eval.mission import run_solo
from repro.exp import ExperimentSpec, ResultStore, Trial
from repro.exp import run as run_experiment

if TYPE_CHECKING:
    from repro.kernel import WorldTask

#: FTMs assigned to apps round-robin: half the fleet needs TR coverage,
#: so resource-driven transitions exercise both families.
APP_FTMS = ("pbr", "pbr+tr")


@dataclass
class FleetOutcome:
    """What one fleet mission observed (JSON-safe via ``asdict``)."""

    seed: int
    hosts: int = 0
    apps: int = 0
    placement: str = ""
    churn_events: int = 0
    node_downs: int = 0
    node_ups: int = 0
    node_limps: int = 0
    limp_decisions: int = 0
    sent: int = 0
    ok: int = 0
    errors: int = 0
    dropped: int = 0
    transitions: int = 0
    failed_transitions: int = 0
    contention_decisions: int = 0
    pending_proposals: int = 0
    reintegrations: int = 0
    final_ftms: Dict[str, str] = field(default_factory=dict)
    trace_digest: str = ""

    @property
    def adapted_apps(self) -> int:
        """Apps that ended the mission under a different FTM."""
        return sum(
            1 for app, ftm in self.final_ftms.items()
            if not app.endswith(f":{ftm}")
        )


def trace_digest(world) -> str:
    """A stable digest of the world's full event trace.

    Byte-identical digests mean identical event sequences — the churn
    determinism tests compare this across repeated runs and across
    executor backends.
    """
    # one update of the joined text: blake2b streams, so the bytes (and
    # the digest) are those of one update per record
    text = "".join([
        f"{record.time!r}|{record.category}|{record.event}|{record.details!r}\n"
        for record in world.trace.records
    ])
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def fleet_task(
    seed: int,
    hosts: int = 10,
    apps: int = 3,
    placement: str = "round-robin",
    churn: int = 0,
    kind: str = "random",
    rate_per_s: float = 2.0,
    duration_ms: float = 8_000.0,
    limp_fraction: float = 0.0,
) -> WorldTask:
    """One fleet mission as an unrun :class:`WorldTask`.

    The world starts *empty*: hosts and links are added by
    ``topology.materialise`` inside the mission (they depend on the
    seed).
    """
    from repro.fleet.manager import FleetResilienceManager
    from repro.fleet.placement import AppSpec, policy as placement_policy
    from repro.fleet.population import Population, apply_churn, churn_schedule
    from repro.fleet.topology import make_fleet
    from repro.ftm import deploy_ftm_pair
    from repro.kernel import Timeout, World, WorldTask

    topology = make_fleet(kind, hosts, seed=seed)
    world = World(seed=seed)
    outcome = FleetOutcome(seed=seed, hosts=hosts, apps=apps,
                           placement=placement, churn_events=churn)

    def scenario():
        topology.materialise(world)
        specs = [
            AppSpec(f"app{i:02d}", ftm=APP_FTMS[i % len(APP_FTMS)])
            for i in range(apps)
        ]
        assignments = placement_policy(placement).place(topology, specs)
        manager = FleetResilienceManager(world, topology)
        pairs = []
        for assignment in assignments:
            pair = yield from deploy_ftm_pair(
                world, assignment.ftm, list(assignment.nodes),
                composite_name=f"ftm-{assignment.app}",
            )
            pair.enable_recovery(restart_delay=300.0)
            manager.register(assignment, pair)
            pairs.append(pair)
        manager.start()

        population = Population(world, assignments, rate_per_s=rate_per_s,
                                duration_ms=duration_ms)
        population.start()
        if churn:
            replica_hosts = [h for a in assignments for h in a.nodes]
            events = churn_schedule(
                replica_hosts, seed, events=churn,
                window=(world.now + 500.0, world.now + duration_ms),
                rng=world.sim.random.substream("churn"),
                limp_fraction=limp_fraction,
            )
            apply_churn(world, events)

        yield from population.drain()
        yield Timeout(8_000.0)  # recovery + transition tail
        manager.stop()

        totals = population.totals()
        summary = manager.summary()
        outcome.node_downs = world.faults.churn_events["node_down"]
        outcome.node_ups = world.faults.churn_events["node_up"]
        outcome.node_limps = world.faults.churn_events.get("node_limp", 0)
        outcome.limp_decisions = summary.get("limp_decisions", 0)
        outcome.sent = totals["sent"]
        outcome.ok = totals["ok"]
        outcome.errors = totals["errors"]
        outcome.dropped = totals["dropped"]
        outcome.transitions = summary["transitions"]
        outcome.failed_transitions = summary["failed_transitions"]
        outcome.contention_decisions = summary["contention_decisions"]
        outcome.pending_proposals = summary["pending_proposals"]
        outcome.reintegrations = sum(p.reintegrations for p in pairs)
        outcome.final_ftms = summary["final_ftms"]
        outcome.trace_digest = trace_digest(world)
        return asdict(outcome)

    return WorldTask(world, scenario(), name="fleet-mission")


def run_fleet_mission(seed: int, **kwargs) -> FleetOutcome:
    """One fleet mission; fully determined by its seed and sizes."""
    return FleetOutcome(**run_solo(fleet_task(seed, **kwargs)))


def _trial(seed: int, params: Mapping) -> Dict:
    """One fleet mission as a plain dict (JSON-safe for the store)."""
    return run_solo(fleet_task(seed, **dict(params)))


def _reduce_cell(values: List[Dict]) -> Dict:
    """Collapse one cell's mission outcomes to streaming counts.

    The per-mission ``trace_digests`` ride along so cross-backend store
    comparisons also certify event-order identity.
    """
    outcomes = [FleetOutcome(**raw) for raw in values]
    return {
        "missions": len(outcomes),
        "sent": sum(o.sent for o in outcomes),
        "ok": sum(o.ok for o in outcomes),
        "errors": sum(o.errors for o in outcomes),
        "dropped": sum(o.dropped for o in outcomes),
        "node_downs": sum(o.node_downs for o in outcomes),
        "node_ups": sum(o.node_ups for o in outcomes),
        "node_limps": sum(o.node_limps for o in outcomes),
        "limp_decisions": sum(o.limp_decisions for o in outcomes),
        "transitions": sum(o.transitions for o in outcomes),
        "failed_transitions": sum(o.failed_transitions for o in outcomes),
        "contention_decisions": sum(
            o.contention_decisions for o in outcomes
        ),
        "reintegrations": sum(o.reintegrations for o in outcomes),
        "trace_digests": [o.trace_digest for o in outcomes],
    }


def spec(
    missions: int = 2,
    base_seed: int = 9000,
    hosts: int = 10,
    apps: int = 3,
    kind: str = "random",
    placements=("round-robin", "greedy", "affinity"),
    churn_rates=(0, 2),
    rate_per_s: float = 2.0,
    duration_ms: float = 8_000.0,
    limp_fraction: float = 0.0,
) -> ExperimentSpec:
    """The fleet campaign: one cell per (placement × churn rate).

    Every cell runs the same mission seed sequence, so two cells differ
    only in the grid parameters — and the whole spec runs unchanged on
    any executor backend with a byte-identical store.
    """
    seeds = tuple(base_seed + 101 * m for m in range(missions))
    trials = tuple(
        Trial(
            key=f"{placement}-churn{churn}",
            params={
                "hosts": hosts, "apps": apps, "placement": placement,
                "churn": churn, "kind": kind, "rate_per_s": rate_per_s,
                "duration_ms": duration_ms, "limp_fraction": limp_fraction,
            },
            seeds=seeds,
        )
        for placement in placements
        for churn in churn_rates
    )
    return ExperimentSpec(name="fleet-campaign", trial=_trial,
                          trials=trials, reduce=_reduce_cell)


def from_results(results: Dict) -> Dict:
    """Aggregate the per-cell streamed counts into the campaign summary."""
    cells = {key: dict(value) for key, value in results.items()}
    return {
        "cells": cells,
        "missions": sum(c["missions"] for c in cells.values()),
        "sent": sum(c["sent"] for c in cells.values()),
        "ok": sum(c["ok"] for c in cells.values()),
        "errors": sum(c["errors"] for c in cells.values()),
        "dropped": sum(c["dropped"] for c in cells.values()),
        "transitions": sum(c["transitions"] for c in cells.values()),
        "contention_decisions": sum(
            c["contention_decisions"] for c in cells.values()
        ),
        "limp_decisions": sum(
            c.get("limp_decisions", 0) for c in cells.values()
        ),
        "node_downs": sum(c["node_downs"] for c in cells.values()),
        "node_limps": sum(c.get("node_limps", 0) for c in cells.values()),
        "reintegrations": sum(c["reintegrations"] for c in cells.values()),
    }


def render(data: Dict) -> str:
    """A per-cell table plus the fleet-wide aggregate line."""
    rows = [
        [
            key, cell["missions"], cell["sent"], cell["ok"],
            cell["errors"] + cell["dropped"], cell["node_downs"],
            cell.get("node_limps", 0), cell["transitions"],
            cell["contention_decisions"], cell["reintegrations"],
        ]
        for key, cell in sorted(data["cells"].items())
    ]
    table = render_table(
        ["Cell", "Missions", "Sent", "OK", "Err+Drop", "Downs", "Limps",
         "Transitions", "Contention", "Reintegr."],
        rows,
        title="Fleet campaign (placement × churn grid)",
    )
    summary = (
        f"\nfleet-wide: {data['missions']} missions, "
        f"{data['ok']}/{data['sent']} requests ok, "
        f"{data['node_downs']} churn outages, "
        f"{data['node_limps']} gray limps, "
        f"{data['transitions']} transitions "
        f"({data['contention_decisions']} contention-triggered, "
        f"{data['limp_decisions']} limp-steered), "
        f"{data['reintegrations']} reintegrations"
    )
    return table + summary


def shape_checks(data: Dict) -> List[str]:
    """The fleet claims the campaign must uphold (empty = all hold)."""
    problems: List[str] = []
    if data["missions"] == 0:
        problems.append("campaign ran no missions")
    if data["sent"] == 0:
        problems.append("open-loop population issued no requests")
    elif data["ok"] == 0:
        problems.append("no request succeeded fleet-wide")
    elif data["ok"] < data["sent"] * 0.5:
        problems.append(
            f"under half the requests succeeded "
            f"({data['ok']}/{data['sent']})"
        )
    for key, cell in sorted(data["cells"].items()):
        if "churn0" not in key and (
            cell["node_downs"] + cell.get("node_limps", 0) == 0
        ):
            problems.append(f"cell {key}: churn armed but no host went down")
    return problems


def generate(
    missions: int = 2,
    base_seed: int = 9000,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    **grid,
) -> Dict:
    """Run the fleet campaign and aggregate the streamed counts."""
    result = run_experiment(
        spec(missions=missions, base_seed=base_seed, **grid),
        jobs=jobs, store=store,
    )
    return from_results(result.results)
