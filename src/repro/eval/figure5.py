"""Figure 5 — source lines of code of the FT design-pattern elements.

The paper plots the SLOC of each pattern element (up to ~250 lines),
showing that concrete FTMs and especially compositions are tiny next to
the factored framework classes.  We measure the same quantity directly on
our implementation.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.eval.format import render_table
from repro.eval.sloc import class_sloc
from repro.exp import ExperimentSpec, Trial
from repro.patterns import (
    LFR,
    LFR_A,
    LFR_TR,
    PBR,
    PBR_A,
    PBR_TR,
    Assertion,
    DuplexProtocol,
    FaultToleranceProtocol,
    TimeRedundancy,
)

ELEMENTS = (
    ("FaultToleranceProtocol", FaultToleranceProtocol),
    ("DuplexProtocol", DuplexProtocol),
    ("PBR", PBR),
    ("LFR", LFR),
    ("TimeRedundancy", TimeRedundancy),
    ("Assertion", Assertion),
    ("PBR_TR", PBR_TR),
    ("LFR_TR", LFR_TR),
    ("PBR_A", PBR_A),
    ("LFR_A", LFR_A),
)


def _trial(_seed: int, _params: Mapping) -> Dict[str, int]:
    """The Figure 5 data as one (static, JSON-safe) trial result."""
    return {name: class_sloc(cls) for name, cls in ELEMENTS}


def spec() -> ExperimentSpec:
    """Figure 5 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="figure5", trial=_trial,
        trials=(Trial(key="figure5", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict[str, int]:
    """Rebuild the Figure 5 data from the stored trial result."""
    return results["figure5"][0]


def shape_checks(data: Dict[str, int]) -> List[str]:
    """The Figure 5 claims that must hold on any implementation:

    * framework classes (the design loops' output) carry most of the code;
    * every composition is far smaller than every base mechanism it
      composes (the "Lego" payoff).
    """
    problems: List[str] = []
    framework = data["FaultToleranceProtocol"] + data["DuplexProtocol"]
    for composition in ("PBR_TR", "LFR_TR"):
        if data[composition] > data["PBR"] / 2:
            problems.append(
                f"{composition} ({data[composition]} SLOC) is not well below "
                f"PBR ({data['PBR']} SLOC)"
            )
    concrete = data["PBR"] + data["LFR"] + data["TimeRedundancy"] + data["Assertion"]
    if framework < concrete / 4:
        problems.append(
            f"framework ({framework} SLOC) suspiciously small next to the "
            f"concrete FTMs ({concrete} SLOC) — factorisation check"
        )
    return problems


def render(data: Dict[str, int]) -> str:
    """An ASCII bar chart of SLOC per element."""
    peak = max(data.values()) or 1
    rows = []
    for name, _cls in ELEMENTS:
        bar = "#" * max(1, round(data[name] / peak * 40))
        rows.append([name, data[name], bar])
    return render_table(
        ["Element", "SLOC", ""],
        rows,
        title="Figure 5: FT design patterns — source lines of code",
    )
