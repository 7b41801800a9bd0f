"""Figure 4 — development time of the FT design patterns.

The paper measures *human development days* per design element: the two
design loops took ~4.5–5 days each, while each additional FTM (LFR,
Assertion, Time Redundancy) and the compositions took 0.5–1 day thanks
to the factorisation.

Human effort cannot be re-measured in a reproduction, so (per the
substitution policy in DESIGN.md) we use **incremental SLOC over the
shared framework** as the effort proxy, computed on our own pattern
implementation, and report the paper's day figures alongside.  The claim
under test is the *shape*: each design loop dwarfs every element built on
top of it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.eval.format import render_table
from repro.eval.sloc import classes_sloc
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
from repro.patterns.composed import _DuplexAssertion
from repro.patterns.duplex import LocalLink
from repro.patterns.messages import PeerMessage, Reply, Request

#: The paper's Figure 4 values (days of development effort).
PAPER_DAYS = {
    "1st design loop": 4.5,
    "LFR": 1.0,
    "2nd design loop": 5.0,
    "Assertion": 0.5,
    "Time Redundancy": 0.5,
    "Composition": 0.5,
}

#: What each Figure 4 element corresponds to in our codebase.
ELEMENT_CLASSES = {
    # loop 1 factored the duplex core (roles, link, failover) out of a
    # monolithic PBR
    "1st design loop": (DuplexProtocol, LocalLink, PBR),
    "LFR": (LFR,),
    # loop 2 factored what is common to ALL FTMs into the root class:
    # client communication, the message vocabulary, at-most-once semantics
    "2nd design loop": (FaultToleranceProtocol, Request, Reply, PeerMessage),
    "Assertion": (Assertion,),
    "Time Redundancy": (TimeRedundancy,),
    "Composition": (PBR_TR, LFR_TR, PBR_A, LFR_A, _DuplexAssertion),
}


def _trial(_seed: int, _params: Mapping) -> Dict:
    """The Figure 4 data as one (static, JSON-safe) trial result."""
    measured = {
        element: classes_sloc(classes)
        for element, classes in ELEMENT_CLASSES.items()
    }
    return {"paper_days": dict(PAPER_DAYS), "proxy_sloc": measured}


def spec() -> ExperimentSpec:
    """Figure 4 as a single-trial experiment spec."""
    return ExperimentSpec(
        name="figure4", trial=_trial,
        trials=(Trial(key="figure4", params={}, seeds=(0,)),),
    )


def from_results(results: Dict) -> Dict:
    """Rebuild the Figure 4 data from the stored trial result."""
    return results["figure4"][0]


def shape_checks(data: Dict) -> List[str]:
    """The Figure 4 claim: design loops dominate; added FTMs are cheap."""
    problems: List[str] = []
    sloc = data["proxy_sloc"]
    loops = min(sloc["1st design loop"], sloc["2nd design loop"])
    for cheap in ("LFR", "Assertion", "Time Redundancy"):
        if sloc[cheap] >= loops:
            problems.append(
                f"{cheap} ({sloc[cheap]} SLOC) is not smaller than the "
                f"cheapest design loop ({loops} SLOC)"
            )
    # compositions are cheap *per composition*
    per_composition = sloc["Composition"] / 4
    if per_composition >= loops:
        problems.append(
            f"per-composition effort ({per_composition:.0f} SLOC) not smaller "
            f"than a design loop ({loops} SLOC)"
        )
    return problems


def render(data: Dict) -> str:
    """The effort table, one row per design element."""
    rows = [
        [element, data["paper_days"][element], data["proxy_sloc"][element]]
        for element in PAPER_DAYS
    ]
    return render_table(
        ["Element", "Paper (days)", "Measured proxy (incremental SLOC)"],
        rows,
        title="Figure 4: FT design patterns — development effort",
    )
