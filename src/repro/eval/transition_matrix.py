"""The transition-survival matrix: FTM transitions × faults-at-phase.

The paper argues transitions must be *resilient*, not merely fast: a
fault striking **while** the architecture is being rewired must never
lose client requests or strand the pair in a mixed configuration.  This
experiment makes that claim measurable.  Each cell runs one networked
transition (the repository hosted on its own node, the package fetched
over the lossy link) under a steady client workload, with one fault
armed against one phase of the transition path on one replica:

=========  =====================================================
phase      where the fault lands
=========  =====================================================
fetch      while package chunks cross the network
deploy     while the package is unpacked/instantiated
script     while the reconfiguration script executes (gate closed)
remove     while residual package files are cleaned up
=========  =====================================================

crossed with the fault kinds of Table 1: ``crash`` (fail-stop the
replica's node), ``corrupt`` (value fault on the package payload or the
script), ``omission`` (message loss while the phase runs), ``slow``
(gray failure: the phase's dominant resource limps — link while
fetching, disk while unpacking/removing, CPU while the script runs —
and recovers when the phase ends) — plus a fault-free ``none`` baseline
column.

Each cell classifies the mission:

* **S** survived — the transition completed and every request was
  served exactly once;
* **R** rolled back — a replica aborted transactionally (or crashed)
  but its peer completed the transition, service uninterrupted;
* **D** degraded — the target could not be installed anywhere; the pair
  kept serving on the source FTM and reported a fallback;
* **!** lost — some client request was lost or duplicated (this marker
  must never appear).

The shape checks encode the resilience claims: every cell converges
(S, R or D — never lost), the fault-free column is all S, and corrupted
package payloads are always caught by the checksum before installation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.eval.format import render_table
from repro.eval.mission import pair_task, run_solo
from repro.exp import ExperimentSpec, Trial
from repro.vocabulary import TRANSITION_FAULT_KINDS, TRANSITION_PHASES

if TYPE_CHECKING:
    from repro.kernel import WorldTask

#: The FTM transitions the matrix exercises (differential neighbours).
TRANSITIONS = (("pbr", "lfr"), ("pbr", "lfr+tr"), ("lfr", "lfr+tr"))

#: The replica the fault is armed against.
FAULTED_NODE = "beta"

#: Omission rate applied to the network while the faulted phase runs.
OMISSION_RATE = 0.5

#: Slowdown factor for ``slow`` cells (power of two: exact float revert).
SLOW_FACTOR = 8.0

#: The resource that limps per phase: whatever the phase leans on most.
SLOW_RESOURCE_BY_PHASE = {
    "fetch": "link", "deploy": "disk", "script": "cpu", "remove": "disk",
}

#: Fault columns: the fault-free baseline plus every phase × kind pair.
FAULT_LABELS = ("none",) + tuple(
    f"{phase}/{kind}"
    for phase in TRANSITION_PHASES
    for kind in TRANSITION_FAULT_KINDS
)

#: The cells the CI smoke run exercises: the baseline plus one cell per
#: fault kind (cheap, still crosses every code path of the fault hooks).
SMOKE_LABELS = (
    "none", "fetch/omission", "fetch/corrupt", "script/crash", "script/slow",
)


@dataclass
class CellOutcome:
    """One seeded mission of one matrix cell."""

    seed: int
    transition: str
    fault: str
    outcome: str = ""          #: success / degraded / failed
    status: str = ""           #: S / R / D (+ "!" when requests were lost)
    all_ok: bool = False
    exactly_once: bool = False
    final_ftm: str = ""
    fallback_ftm: Optional[str] = None
    replicas_alive: int = 0
    converged: bool = False
    rolled_back: bool = False
    crashed_replicas: int = 0
    corrupt_detected: int = 0
    fetch_attempts: int = 0
    faults_injected: int = 0
    reintegrations: int = 0


def cell_task(
    seed: int, source: str, target: str, fault: str, requests: int = 20
) -> WorldTask:
    """One matrix cell as an unrun :class:`WorldTask`.

    The task's result is the cell outcome as a plain dict, the fields of
    :class:`CellOutcome`.
    The platform is :func:`~repro.eval.mission.pair_task`'s, with the
    repository hosted on a fourth node.
    """
    from repro.app.workloads import constant
    from repro.core.adaptation_engine import AdaptationEngine
    from repro.core.repository import Repository
    from repro.kernel import Fault, Timeout

    outcome = CellOutcome(
        seed=seed, transition=f"{source}->{target}", fault=fault
    )

    def run(world, pair, client):
        repository = Repository()
        repository.attach(world)
        engine = AdaptationEngine(world, pair, repository)
        if fault != "none":
            phase, kind = fault.split("/")
            # a script-phase crash lands at a statement boundary: the
            # transaction rolls back before the fail-silent wrapper kills
            world.faults.arm(Fault(
                kind, FAULTED_NODE, phase=phase,
                statement=1 if (phase, kind) == ("script", "crash") else None,
                probability=OMISSION_RATE if kind == "omission" else 1.0,
                resource=SLOW_RESOURCE_BY_PHASE[phase], factor=SLOW_FACTOR,
            ))

        span = requests * 120.0

        def adapt():
            yield Timeout(0.25 * span)
            yield from engine.transition(target)

        world.sim.spawn(adapt(), name="adapt")
        yield from constant(client, count=requests, period_ms=120.0)
        yield Timeout(10_000.0)  # quarantine/recovery tail

        report = engine.history[-1] if engine.history else None
        outcome.all_ok = client.all_ok
        final_value = client.replies[-1].value if client.replies else -1
        outcome.exactly_once = final_value == requests
        outcome.final_ftm = pair.ftm
        outcome.replicas_alive = sum(1 for r in pair.replicas if r.alive)
        outcome.reintegrations = pair.reintegrations
        outcome.faults_injected = world.trace.count(
            "fault", "transition_fault_injected"
        )
        outcome.corrupt_detected = (
            world.trace.count("adaptation", "fetch_corrupt_detected")
            + world.trace.count("adaptation", "unpack_corrupt_detected")
        )
        if report is None:
            outcome.outcome = "failed"
        else:
            outcome.outcome = report.outcome
            outcome.fallback_ftm = report.fallback_ftm
            outcome.rolled_back = any(r.killed for r in report.replicas)
            outcome.crashed_replicas = sum(
                1 for r in report.replicas if r.crashed
            )
            outcome.fetch_attempts = sum(
                r.fetch_attempts for r in report.replicas
            )

        expected_ftm = target if outcome.outcome == "success" else source
        outcome.converged = (
            outcome.replicas_alive == 2
            and outcome.final_ftm == expected_ftm
            and all(r.deployed_ftm == pair.ftm for r in pair.replicas)
        )
        if outcome.outcome == "degraded":
            outcome.status = "D"
        elif outcome.outcome == "success" and (
            outcome.rolled_back or outcome.crashed_replicas
        ):
            outcome.status = "R"
        elif outcome.outcome == "success":
            outcome.status = "S"
        else:
            outcome.status = "F"
        if not (outcome.all_ok and outcome.exactly_once):
            outcome.status += "!"
        return asdict(outcome)

    return pair_task(seed, source, run)


# -- experiment plumbing ---------------------------------------------------------------


def _trial(seed: int, params: Mapping) -> Dict:
    return run_solo(cell_task(
        seed, params["source"], params["target"], params["fault"],
        requests=params["requests"],
    ))


def spec(runs: int = 1, base_seed: int = 7000, requests: int = 20,
         smoke: bool = False) -> ExperimentSpec:
    """The matrix experiment: one trial per (transition, fault) cell.

    ``smoke=True`` restricts the grid to :data:`SMOKE_LABELS` on the
    first transition — the cheap CI subset.
    """
    labels = SMOKE_LABELS if smoke else FAULT_LABELS
    transitions = TRANSITIONS[:1] if smoke else TRANSITIONS
    trials = []
    for source, target in transitions:
        for fault in labels:
            key = f"{source}->{target}|{fault}"
            trials.append(Trial(
                key=key,
                params={
                    "source": source, "target": target,
                    "fault": fault, "requests": requests,
                },
                seeds=tuple(
                    base_seed + 97 * run + 7 * hash_label(key) % 10_000
                    for run in range(runs)
                ),
            ))
    return ExperimentSpec(
        name="transition_matrix" + ("_smoke" if smoke else ""),
        trial=_trial, trials=tuple(trials),
    )


def hash_label(label: str) -> int:
    """A tiny deterministic label hash (``hash()`` is salted per process)."""
    value = 0
    for char in label:
        value = (value * 131 + ord(char)) % 1_000_003
    return value


def from_results(results: Dict) -> Dict:
    """Rebuild the grid from raw cell outcomes."""
    cells: Dict[str, Dict[str, List[CellOutcome]]] = {}
    for key, raws in results.items():
        transition, fault = key.split("|")
        cells.setdefault(transition, {}).setdefault(fault, []).extend(
            CellOutcome(**raw) for raw in raws
        )
    transitions = [f"{s}->{t}" for s, t in TRANSITIONS
                   if f"{s}->{t}" in cells]
    faults = [f for f in FAULT_LABELS
              if any(f in row for row in cells.values())]
    return {"cells": cells, "transitions": transitions, "faults": faults}


def _cell_text(outcomes: List[CellOutcome]) -> str:
    """Collapse a cell's seeded runs into its status alphabet."""
    statuses = sorted({o.status for o in outcomes})
    return ",".join(statuses)


def render(data: Dict) -> str:
    """The survival grid, one row per transition, one column per fault."""
    headers = ["Transition"] + list(data["faults"])
    rows = []
    for transition in data["transitions"]:
        row = [transition]
        for fault in data["faults"]:
            outcomes = data["cells"][transition].get(fault, [])
            row.append(_cell_text(outcomes) if outcomes else "-")
        rows.append(row)
    legend = (
        "\nS=survived  R=peer rolled back/crashed, service continued  "
        "D=degraded (kept source FTM)  !=requests lost (must not appear)"
    )
    return render_table(
        headers, rows,
        title="Transition-survival matrix (fault at phase x kind, "
              f"node {FAULTED_NODE!r})",
    ) + legend


def shape_checks(data: Dict) -> List[str]:
    """The resilience claims every cell must uphold (empty = all hold)."""
    problems: List[str] = []
    for transition in data["transitions"]:
        for fault, outcomes in data["cells"][transition].items():
            for o in outcomes:
                label = f"{transition} under {fault} (seed {o.seed})"
                if "!" in o.status:
                    problems.append(f"{label}: lost/duplicated requests")
                if not o.converged:
                    problems.append(
                        f"{label}: did not converge "
                        f"(alive={o.replicas_alive}, ftm={o.final_ftm})"
                    )
                if o.outcome == "failed":
                    problems.append(f"{label}: neither success nor degraded")
                if fault == "none" and o.status != "S":
                    problems.append(
                        f"{label}: fault-free cell not clean ({o.status})"
                    )
                if fault.endswith("/corrupt") and not fault.startswith(
                    ("script", "remove")
                ) and o.corrupt_detected == 0 and o.faults_injected > 0:
                    problems.append(
                        f"{label}: corruption injected but never detected"
                    )
                if fault.endswith("/slow") and o.status not in ("S", "R"):
                    # a gray failure slows the phase down — it must never
                    # abort the transition or kill the replica
                    problems.append(
                        f"{label}: slow cell must survive ({o.status})"
                    )
    return problems
