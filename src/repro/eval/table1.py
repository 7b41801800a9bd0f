"""Table 1 — (FT, A, R) parameters of the considered FTMs.

The paper's Table 1 lists PBR, LFR, TR and A&Duplex against the fault
model, application characteristics and resources.  We regenerate it from
the metadata carried by the pattern classes (the same metadata the
consistency checker uses, so the table *is* the decision model).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.eval.format import check, render_table
from repro.exp import ExperimentSpec, Trial
from repro.patterns import LFR, PBR, PBR_A, TimeRedundancy

#: The paper's Table 1 columns (A&Duplex is represented by its PBR variant;
#: the table rows are variant-independent).
TABLE1_FTMS = (("PBR", PBR), ("LFR", LFR), ("TR", TimeRedundancy), ("A&Duplex", PBR_A))


def _trial(_seed: int, _params: Mapping) -> Dict:
    """The Table 1 data as one (static, JSON-safe) trial result."""
    return {
        label: pattern.characteristics() for label, pattern in TABLE1_FTMS
    }


def spec() -> ExperimentSpec:
    """Table 1 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="table1", trial=_trial,
        trials=(Trial(key="table1", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Table 1 data (re-tupling the fault-model lists)."""
    return {
        label: {**chars, "fault_models": tuple(chars["fault_models"])}
        for label, chars in results["table1"][0].items()
    }


#: The paper's Table 1 cells, for the fidelity check in the tests: each
#: entry is (row-label, column-label) -> expected value.
PAPER_TABLE1 = {
    ("crash", "PBR"): True,
    ("crash", "LFR"): True,
    ("crash", "TR"): False,
    ("crash", "A&Duplex"): True,
    ("transient_value", "PBR"): False,
    ("transient_value", "LFR"): False,
    ("transient_value", "TR"): True,
    ("transient_value", "A&Duplex"): True,
    ("permanent_value", "PBR"): False,
    ("permanent_value", "LFR"): False,
    ("permanent_value", "TR"): False,
    ("permanent_value", "A&Duplex"): True,
    ("deterministic", "PBR"): True,
    ("deterministic", "LFR"): True,
    ("deterministic", "TR"): True,
    ("deterministic", "A&Duplex"): True,
    ("non_deterministic", "PBR"): True,
    ("non_deterministic", "LFR"): False,
    ("non_deterministic", "TR"): False,
    ("non_deterministic", "A&Duplex"): False,
    ("requires_state_access", "PBR"): True,
    ("requires_state_access", "LFR"): False,
    ("requires_state_access", "TR"): True,
    ("requires_state_access", "A&Duplex"): True,
    ("bandwidth", "PBR"): "high",
    ("bandwidth", "LFR"): "low",
    ("bandwidth", "TR"): "n/a",
    ("bandwidth", "A&Duplex"): "low",
    ("cpu", "PBR"): "low",
    ("cpu", "LFR"): "low",
    ("cpu", "TR"): "high",
    ("cpu", "A&Duplex"): "high",
}


def measured_cell(data: Dict, row: str, column: str):
    """Our value for one (row, column) cell of Table 1."""
    chars = data[column]
    if row in ("crash", "transient_value", "permanent_value"):
        return row in chars["fault_models"]
    return chars[row]


def fidelity(data: Dict) -> Dict[str, int]:
    """Compare our metadata against the paper's cells.

    Known, documented divergences (see EXPERIMENTS.md): our A&Duplex row is
    the A&PBR variant, whose bandwidth is *high* (it keeps checkpointing)
    and which requires state access; the paper's generic A&Duplex row
    reflects the A&LFR flavour.  Everything else must match exactly.
    """
    matches = 0
    mismatches = []
    for (row, column), expected in PAPER_TABLE1.items():
        actual = measured_cell(data, row, column)
        if actual == expected:
            matches += 1
        else:
            mismatches.append((row, column, expected, actual))
    return {"matches": matches, "total": len(PAPER_TABLE1), "mismatches": mismatches}


def shape_checks(data: Dict) -> List[str]:
    """Table 1 reproduces when at least 30 of its 32 cells match."""
    return [] if fidelity(data)["matches"] >= 30 else ["fidelity"]


def render(data: Dict) -> str:
    """The (FT, A, R) table, paper-style."""
    labels = [label for label, _ in TABLE1_FTMS]
    rows = [
        ["Crash"] + [check("crash" in data[name]["fault_models"]) for name in labels],
        ["Transient value"]
        + [check("transient_value" in data[name]["fault_models"]) for name in labels],
        ["Permanent value"]
        + [check("permanent_value" in data[name]["fault_models"]) for name in labels],
        ["Deterministic"] + [check(data[name]["deterministic"]) for name in labels],
        ["Non-deterministic"]
        + [check(data[name]["non_deterministic"]) for name in labels],
        ["Requires state access"]
        + [check(data[name]["requires_state_access"]) for name in labels],
        ["Bandwidth"] + [data[name]["bandwidth"] for name in labels],
        ["CPU"] + [data[name]["cpu"] for name in labels],
    ]
    return render_table(
        ["Characteristic"] + labels,
        rows,
        title="Table 1: (FT, A, R) parameters of considered FTMs",
    )
