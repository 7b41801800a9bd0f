"""Figure 9 — transition-time distribution w.r.t. number of components.

The paper decomposes three transitions into their phases:

===============  ==========  =================  ===============  =======
transition       components  deploy package     execute script   remove
===============  ==========  =================  ===============  =======
LFR → LFR⊕TR     1           59%                19%              22%
PBR → LFR        2           48%                35%              17%
PBR → LFR⊕TR     3           45%                40%              15%
===============  ==========  =================  ===============  =======

The claims: script execution grows with the number of replaced components
but stays below half of the total; package deployment is roughly half.
We re-run the same three transitions with the instrumented Adaptation
Engine.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.adaptation_engine import AdaptationEngine
from repro.eval.format import render_table
from repro.exp import ExperimentSpec, ResultStore, Trial
from repro.exp import run as run_experiment
from repro.ftm import deploy_ftm_pair, variable_feature_distance
from repro.kernel import World

#: The paper's three transitions and their phase shares.
PAPER_FIGURE9 = {
    ("lfr", "lfr+tr"): {"deploy_package": 0.59, "execute_script": 0.19, "remove_package": 0.22},
    ("pbr", "lfr"): {"deploy_package": 0.48, "execute_script": 0.35, "remove_package": 0.17},
    ("pbr", "lfr+tr"): {"deploy_package": 0.45, "execute_script": 0.40, "remove_package": 0.15},
}

TRANSITIONS: Tuple[Tuple[str, str], ...] = tuple(PAPER_FIGURE9)


def measure(source: str, target: str, seed: int) -> Dict:
    """One instrumented transition run; returns the phase breakdown."""
    world = World(seed=seed)

    def do():
        pair = yield from deploy_ftm_pair(world, source, ["alpha", "beta"])
        engine = AdaptationEngine(world, pair)
        report = yield from engine.transition(target)
        return report

    report = world.run_scenario(do(), nodes=("alpha", "beta"), name="measure")
    world.close()
    replica = next(r for r in report.replicas if r.success)
    return {
        "components": variable_feature_distance(source, target),
        "total_ms": replica.total_ms,
        "deploy_ms": replica.deploy_ms,
        "script_ms": replica.script_ms,
        "remove_ms": replica.remove_ms,
        "shares": replica.phase_shares(),
    }


def _trial(seed: int, params: Mapping) -> Dict:
    """One instrumented Figure 9 transition at one seed."""
    return measure(params["source"], params["target"], seed)


def spec(runs: int = 3, base_seed: int = 2000) -> ExperimentSpec:
    """The Figure 9 experiment: the paper's three transitions, ``runs`` each.

    All three cells reuse the same seed sequence ``base_seed + run`` so the
    transitions are compared on identical platforms, as the paper does.
    """
    trials = tuple(
        Trial(
            key=f"{source}->{target}",
            params={"source": source, "target": target},
            seeds=tuple(base_seed + r for r in range(runs)),
        )
        for source, target in TRANSITIONS
    )
    return ExperimentSpec(name="figure9", trial=_trial, trials=trials)


def from_results(results: Dict) -> Dict:
    """Rebuild the Figure 9 data dict from raw per-cell trial results."""
    out: Dict[Tuple[str, str], Dict] = {}
    runs = 0
    for source, target in TRANSITIONS:
        samples = results[f"{source}->{target}"]
        runs = len(samples)
        mean = lambda key: sum(s[key] for s in samples) / len(samples)  # noqa: E731
        total = mean("total_ms")
        out[(source, target)] = {
            "components": samples[0]["components"],
            "total_ms": total,
            "deploy_ms": mean("deploy_ms"),
            "script_ms": mean("script_ms"),
            "remove_ms": mean("remove_ms"),
            "shares": {
                "deploy_package": mean("deploy_ms") / total,
                "execute_script": mean("script_ms") / total,
                "remove_package": mean("remove_ms") / total,
            },
        }
    return {"transitions": out, "runs": runs}


def generate(runs: int = 3, base_seed: int = 2000, jobs: int = 1,
             store: Optional[ResultStore] = None) -> Dict:
    """The three Figure 9 transitions, averaged over ``runs`` seeds."""
    result = run_experiment(spec(runs=runs, base_seed=base_seed),
                            jobs=jobs, store=store)
    return from_results(result.results)


def shape_checks(data: Dict) -> List[str]:
    """Figure 9's claims, independent of absolute numbers."""
    problems: List[str] = []
    results = data["transitions"]
    script_shares = [
        results[t]["shares"]["execute_script"] for t in TRANSITIONS
    ]
    # script share grows with the number of replaced components...
    if not (script_shares[0] < script_shares[1] < script_shares[2]):
        problems.append(f"script share not increasing: {script_shares}")
    # ...but stays below half even for the 3-component transition
    if script_shares[2] >= 0.5:
        problems.append(f"script share exceeds half: {script_shares[2]:.2f}")
    # package deployment is roughly half of the total (40–60%)
    for transition in TRANSITIONS:
        share = results[transition]["shares"]["deploy_package"]
        if not 0.35 <= share <= 0.65:
            problems.append(
                f"deploy share of {transition} is {share:.2f}, not ~half"
            )
    return problems


def render(data: Dict) -> str:
    """The phase-share table with the paper's shares alongside."""
    rows = []
    for source, target in TRANSITIONS:
        result = data["transitions"][(source, target)]
        paper = PAPER_FIGURE9[(source, target)]
        rows.append(
            [
                f"{source} -> {target} ({result['components']})",
                f"{result['total_ms']:.0f}",
                f"{result['shares']['deploy_package']:.0%} ({paper['deploy_package']:.0%})",
                f"{result['shares']['execute_script']:.0%} ({paper['execute_script']:.0%})",
                f"{result['shares']['remove_package']:.0%} ({paper['remove_package']:.0%})",
            ]
        )
    return render_table(
        [
            "Transition (components)",
            "Total ms",
            "Deploy package (paper)",
            "Execute script (paper)",
            "Remove package (paper)",
        ],
        rows,
        title=(
            "Figure 9: transition time distribution w.r.t. number of "
            f"components replaced (avg of {data['runs']} runs)"
        ),
    )
