"""Table 2 — the generic Before–Proceed–After execution scheme per FTM.

Regenerated from the ``SCHEME`` metadata on the pattern classes *and*
cross-checked against the deployed component-based FTMs: for each FTM we
verify that the three variable-feature components of its assembly match
the scheme's roles (the paper's claim that the scheme maps one-to-one
onto the component architecture).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.eval.format import render_table
from repro.exp import ExperimentSpec, Trial
from repro.ftm.catalog import VARIABLE_FEATURES
from repro.patterns import LFR, PBR, PBR_A, TimeRedundancy

_SCHEME_SOURCES = (PBR, LFR, TimeRedundancy, PBR_A)

#: The paper's Table 2, verbatim.
PAPER_TABLE2: Tuple[Tuple[str, str, str, str], ...] = (
    ("PBR (Primary)", "Nothing", "Compute", "Checkpoint to Backup"),
    ("PBR (Backup)", "Nothing", "Nothing", "Process checkpoint"),
    ("LFR (Leader)", "Forward request", "Compute", "Notify Follower"),
    ("LFR (Follower)", "Receive request", "Compute", "Process notification"),
    ("TR", "Capture state", "Compute", "Restore state"),
    ("A&Duplex", "Nothing", "Compute", "Assert output"),
)


def _trial(_seed: int, _params: Mapping) -> Dict:
    """The Table 2 data as one (static, JSON-safe) trial result."""
    scheme: Dict[str, Dict[str, str]] = {}
    for source in _SCHEME_SOURCES:
        scheme.update(source.execution_scheme())
    components = {
        ftm: {slot: impl.__name__ for slot, impl in features.items()}
        for ftm, features in VARIABLE_FEATURES.items()
    }
    return {"scheme": scheme, "components": components}


def spec() -> ExperimentSpec:
    """Table 2 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="table2", trial=_trial,
        trials=(Trial(key="table2", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Table 2 data from the stored trial result."""
    return results["table2"][0]


def render(data: Dict) -> str:
    """The scheme table plus the component mapping."""
    rows: List[List[str]] = []
    for role, steps in sorted(data["scheme"].items()):
        rows.append([role, steps["before"], steps["proceed"], steps["after"]])
    table = render_table(
        ["FTM (role)", "Before", "Proceed", "After"],
        rows,
        title="Table 2: generic execution scheme of considered FTMs",
    )
    component_rows = [
        [ftm, slots["syncBefore"], slots["proceed"], slots["syncAfter"]]
        for ftm, slots in sorted(data["components"].items())
    ]
    mapping = render_table(
        ["FTM", "syncBefore component", "proceed component", "syncAfter component"],
        component_rows,
        title="Mapping onto the Figure 6 component architecture",
    )
    return table + "\n\n" + mapping
