"""Figure 8 — the extended graph of transition scenarios.

Regenerated by deriving the scenario graph from the consistency model
(see :mod:`repro.core.transition_graph`) and rendered with the paper's
legend: mandatory / possible / intra edges, probe vs manager detection,
reactive vs proactive nature.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.transition_graph import build_scenario_graph
from repro.eval.format import render_table
from repro.exp import ExperimentSpec, Trial

#: Edges the paper's Figure 8 explicitly shows, which the derivation must
#: reproduce: (source, event, target, kind).
PAPER_FIGURE8_EDGES = (
    ("pbr (determinism)", "bandwidth-drop", "lfr (state access)", "mandatory"),
    ("pbr (determinism)", "state-access-loss", "lfr (no state access)", "mandatory"),
    ("pbr (determinism)", "application-non-determinism", "pbr (non-determinism)", "intra"),
    ("pbr (non-determinism)", "state-access-loss", "no-generic-solution", "mandatory"),
    ("pbr (non-determinism)", "application-determinism", "pbr (determinism)", "intra"),
    ("pbr (non-determinism)", "application-determinism", "lfr (state access)", "possible"),
    ("lfr (state access)", "bandwidth-increase", "pbr (determinism)", "possible"),
    ("lfr (state access)", "state-access-loss", "lfr (no state access)", "intra"),
    ("lfr (state access)", "hardware-aging", "lfr+tr", "mandatory"),
    ("lfr (state access)", "critical-phase-start", "a+duplex", "mandatory"),
    ("lfr (no state access)", "application-non-determinism", "no-generic-solution", "mandatory"),
    ("lfr+tr", "hardware-replaced", "lfr (state access)", "possible"),
    ("a+duplex", "critical-phase-end", "pbr (determinism)", "possible"),
)


def _trial(_seed: int, _params: Mapping) -> Dict:
    """The derived scenario graph as one (static, JSON-safe) result."""
    states, edges = build_scenario_graph()
    return {
        "states": [state.label for state in states],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "event": edge.event,
                "kind": edge.kind,
                "detection": edge.detection,
                "nature": edge.nature,
            }
            for edge in edges
        ],
    }


def spec() -> ExperimentSpec:
    """Figure 8 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="figure8", trial=_trial,
        trials=(Trial(key="figure8", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Figure 8 data from the stored trial result."""
    return results["figure8"][0]


def fidelity(data: Dict) -> List[str]:
    """Paper-shown edges missing from the derivation (empty = reproduced)."""
    derived = {
        (e["source"], e["event"], e["target"], e["kind"]) for e in data["edges"]
    }
    return [
        f"{source} --{event}--> {target} [{kind}]"
        for source, event, target, kind in PAPER_FIGURE8_EDGES
        if (source, event, target, kind) not in derived
    ]


def render(data: Dict) -> str:
    """The full edge table plus a kind histogram."""
    rows = [
        [e["source"], e["event"], e["target"], e["kind"], e["detection"], e["nature"]]
        for e in data["edges"]
    ]
    summary = {
        "mandatory": sum(1 for e in data["edges"] if e["kind"] == "mandatory"),
        "possible": sum(1 for e in data["edges"] if e["kind"] == "possible"),
        "intra": sum(1 for e in data["edges"] if e["kind"] == "intra"),
    }
    table = render_table(
        ["From", "Event", "To", "Kind", "Detected by", "Nature"],
        rows,
        title="Figure 8: extended graph of transition scenarios (derived)",
    )
    return (
        table
        + f"\n\n{len(data['states'])} states; "
        + ", ".join(f"{count} {kind}" for kind, count in summary.items())
        + " edges"
    )
