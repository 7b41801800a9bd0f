"""Figure 2 — graph of possible transitions between FTMs.

Regenerated from the static Figure 2 edge list and cross-checked against
the derived scenario graph: every Figure 2 edge must be realisable by at
least one parameter event in the Figure 8 derivation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from repro.core.transition_graph import (
    FIGURE2_EDGES,
    build_scenario_graph,
    figure2_graph,
)
from repro.eval.format import render_table
from repro.exp import ExperimentSpec, Trial


def _collapse(label: str) -> str:
    """Scenario-state label → Figure 2 node name."""
    return label.split(" (")[0]


def _trial(_seed: int, _params: Mapping) -> Dict:
    """The scenario-realised edge pairs as a (static, JSON-safe) result."""
    _states, scenario_edges = build_scenario_graph()
    realised: Set[Tuple[str, str]] = set()
    for edge in scenario_edges:
        source = _collapse(edge.source)
        target = _collapse(edge.target)
        if source != target and "no-generic" not in (source, target):
            realised.add((source, target))
    return {"realised": sorted(list(pair) for pair in realised)}


def spec() -> ExperimentSpec:
    """Figure 2 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="figure2", trial=_trial,
        trials=(Trial(key="figure2", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Figure 2 data (graph object plus realised-edge set)."""
    raw = results["figure2"][0]
    return {
        "graph": figure2_graph(),
        "realised": {tuple(pair) for pair in raw["realised"]},
    }


def coverage(data: Dict) -> List[str]:
    """Figure 2 edges with no realising scenario event (should be few/none)."""
    missing = []
    for a, b, _labels in FIGURE2_EDGES:
        if (a, b) not in data["realised"] and (b, a) not in data["realised"]:
            missing.append(f"{a} <-> {b}")
    return missing


def render(data: Dict) -> str:
    """The edge table with trigger labels and realisation marks."""
    rows = []
    for a, b, labels in FIGURE2_EDGES:
        realised = []
        if (a, b) in data["realised"]:
            realised.append("->")
        if (b, a) in data["realised"]:
            realised.append("<-")
        rows.append(
            [f"{a} <-> {b}", ",".join(sorted(labels)), " ".join(realised) or "-"]
        )
    return render_table(
        ["Edge", "Trigger dimensions", "Realised by scenario events"],
        rows,
        title="Figure 2: transitions between FTMs",
    )
