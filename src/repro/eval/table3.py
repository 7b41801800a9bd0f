"""Table 3 — FTM deployment from scratch vs transition execution time (ms).

The paper's headline measurement: the first row is the time to deploy
each FTM from scratch (per replica, both replicas deploying in parallel);
every other cell (FTM1, FTM2) is the time of the differential transition
FTM1 → FTM2.  Paper values: deployment ≈ 3.75–3.85 s, transitions
0.83–1.19 s depending on how many variable features change.

We re-run the same experiment on the simulated platform: ``runs`` seeded
repetitions per cell (the paper used 100), averaging the per-replica
transition time reported by the Adaptation Engine.  The experiment is
declared as an :class:`~repro.exp.spec.ExperimentSpec` (see
:func:`spec`), so the 36 deployments + 90 transitions of a full
regeneration fan out over a process pool and land in the result store.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.adaptation_engine import AdaptationEngine
from repro.eval.format import render_table
from repro.exp import ExperimentSpec, Trial, derive_seeds
from repro.ftm import FTM_NAMES, deploy_ftm_pair, variable_feature_distance
from repro.kernel import World, WorldTask, run_solo

#: The paper's Table 3 (ms); row ∅ is deployment from scratch.
PAPER_TABLE3: Dict[Tuple[str, str], float] = {
    ("deploy", "pbr"): 3819, ("deploy", "lfr"): 3751,
    ("deploy", "pbr+tr"): 3852, ("deploy", "lfr+tr"): 3783,
    ("deploy", "a+pbr"): 3824, ("deploy", "a+lfr"): 3786,
    ("pbr", "lfr"): 1003, ("pbr", "pbr+tr"): 840, ("pbr", "lfr+tr"): 1146,
    ("pbr", "a+pbr"): 856, ("pbr", "a+lfr"): 1090,
    ("lfr", "pbr"): 1011, ("lfr", "pbr+tr"): 1151, ("lfr", "lfr+tr"): 838,
    ("lfr", "a+pbr"): 1085, ("lfr", "a+lfr"): 840,
    ("pbr+tr", "pbr"): 836, ("pbr+tr", "lfr"): 1148, ("pbr+tr", "lfr+tr"): 1012,
    ("pbr+tr", "a+pbr"): 937, ("pbr+tr", "a+lfr"): 1191,
    ("lfr+tr", "pbr"): 1145, ("lfr+tr", "lfr"): 830, ("lfr+tr", "pbr+tr"): 1019,
    ("lfr+tr", "a+pbr"): 1186, ("lfr+tr", "a+lfr"): 930,
    ("a+pbr", "pbr"): 851, ("a+pbr", "lfr"): 1081, ("a+pbr", "pbr+tr"): 938,
    ("a+pbr", "lfr+tr"): 1184, ("a+pbr", "a+lfr"): 1007,
    ("a+lfr", "pbr"): 1085, ("a+lfr", "lfr"): 834, ("a+lfr", "pbr+tr"): 1186,
    ("a+lfr", "lfr+tr"): 932, ("a+lfr", "a+pbr"): 1005,
}


def _pair_world(seed: int) -> World:
    """A fresh world with the two FTM hosts, ``alpha`` then ``beta``."""
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    return world


def measure_deployment(ftm: str, seed: int) -> float:
    """Virtual time to deploy one FTM pair from scratch (per replica)."""
    world = _pair_world(seed)
    run_solo(WorldTask(world, deploy_ftm_pair(world, ftm, ["alpha", "beta"]),
                       name="deploy"))
    return world.now


def transition_report(source: str, target: str, seed: int):
    """The engine's report of one ``source`` → ``target`` transition."""
    world = _pair_world(seed)

    def measure():
        pair = yield from deploy_ftm_pair(world, source, ["alpha", "beta"])
        return (yield from AdaptationEngine(world, pair).transition(target))

    return run_solo(WorldTask(world, measure(), name="measure"))


def measure_transition(source: str, target: str, seed: int) -> float:
    """Virtual per-replica time of one differential transition."""
    return transition_report(source, target, seed).per_replica_ms


def _trial(seed: int, params: Mapping) -> Dict:
    """One Table 3 cell at one seed: a deployment or a transition."""
    if params["kind"] == "deploy":
        return {"ms": measure_deployment(params["ftm"], seed)}
    return {"ms": measure_transition(params["source"], params["target"], seed)}


def spec(runs: int = 3, base_seed: int = 1000,
         ftms: Optional[Sequence[str]] = None) -> ExperimentSpec:
    """The Table 3 experiment: one cell per matrix entry, ``runs`` seeds each.

    ``ftms`` restricts the matrix to a subset (used by the determinism
    tests); the default is the paper's full six-FTM catalog.
    """
    names = tuple(ftms) if ftms is not None else tuple(FTM_NAMES)
    trials = []
    for ftm in names:
        key = f"deploy:{ftm}"
        trials.append(Trial(
            key=key, params={"kind": "deploy", "ftm": ftm},
            seeds=derive_seeds(base_seed, key, runs),
        ))
    for source in names:
        for target in names:
            if source == target:
                continue
            key = f"{source}->{target}"
            trials.append(Trial(
                key=key,
                params={"kind": "transition", "source": source, "target": target},
                seeds=derive_seeds(base_seed, key, runs),
            ))
    return ExperimentSpec(name="table3", trial=_trial, trials=tuple(trials))


def from_results(results: Dict, ftms: Optional[Sequence[str]] = None) -> Dict:
    """Rebuild the Table 3 data dict from raw per-cell trial results."""
    names = tuple(ftms) if ftms is not None else tuple(FTM_NAMES)
    deployment: Dict[str, float] = {}
    for ftm in names:
        samples = [r["ms"] for r in results[f"deploy:{ftm}"]]
        deployment[ftm] = sum(samples) / len(samples)
    transitions: Dict[Tuple[str, str], float] = {}
    for source in names:
        for target in names:
            if source == target:
                transitions[(source, target)] = 0.0
                continue
            samples = [r["ms"] for r in results[f"{source}->{target}"]]
            transitions[(source, target)] = sum(samples) / len(samples)
    runs = len(results[f"deploy:{names[0]}"])
    return {"deployment": deployment, "transitions": transitions, "runs": runs}


def shape_checks(data: Dict) -> List[str]:
    """The Table 3 claims that must hold regardless of absolute numbers.

    Returns a list of violations (empty = the shape reproduces).
    """
    problems: List[str] = []
    deployment = data["deployment"]
    transitions = data["transitions"]

    for (source, target), value in transitions.items():
        if source == target:
            if value != 0.0:
                problems.append(f"diagonal {source} is {value}, not 0")
            continue
        # every transition beats deploying the target from scratch by >2x
        if value * 2.0 > deployment[target]:
            problems.append(
                f"{source}->{target} = {value:.0f} ms is not <1/2 of "
                f"deploying {target} ({deployment[target]:.0f} ms)"
            )

    # transitions replacing fewer components are faster
    by_count: Dict[int, List[float]] = {}
    for (source, target), value in transitions.items():
        if source == target:
            continue
        by_count.setdefault(
            variable_feature_distance(source, target), []
        ).append(value)
    means = {count: sum(vals) / len(vals) for count, vals in by_count.items()}
    if not (means.get(1, 0) < means.get(2, 1) < means.get(3, 2)):
        problems.append(f"per-count means not increasing: {means}")

    # near-symmetry: |T(a,b) - T(b,a)| under 15%
    for (source, target), value in transitions.items():
        if source >= target:
            continue
        inverse = transitions[(target, source)]
        if value and abs(value - inverse) / value > 0.15:
            problems.append(
                f"asymmetry {source}<->{target}: {value:.0f} vs {inverse:.0f}"
            )
    return problems


def render(data: Dict) -> str:
    """The measured matrix with the paper's matrix alongside."""
    header = ["FTM1 \\ FTM2"] + list(FTM_NAMES)
    rows: List[List] = [
        ["(deploy)"] + [f"{data['deployment'][ftm]:.0f}" for ftm in FTM_NAMES]
    ]
    for source in FTM_NAMES:
        row = [source]
        for target in FTM_NAMES:
            value = data["transitions"][(source, target)]
            row.append(f"{value:.0f}")
        rows.append(row)
    table = render_table(
        header,
        rows,
        title=(
            "Table 3: FTM deployment from scratch w.r.t. transition "
            f"execution time (ms, avg of {data['runs']} runs, one replica)"
        ),
    )
    paper_rows = [["paper (deploy)"] + [
        f"{PAPER_TABLE3[('deploy', ftm)]:.0f}" for ftm in FTM_NAMES
    ]]
    for source in FTM_NAMES:
        row = [f"paper {source}"]
        for target in FTM_NAMES:
            row.append(
                "0" if source == target else f"{PAPER_TABLE3[(source, target)]:.0f}"
            )
        paper_rows.append(row)
    reference = render_table(header, paper_rows, title="Paper's Table 3 (reference)")
    return table + "\n\n" + reference
