"""FTM validity and selection against a (FT, A, R) context.

The FT and A dimensions are *assumptions*: violating them makes an FTM
invalid (it "will most likely fail to tolerate the faults the system is
confronted with").  The R dimension is a *cost*: violating it degrades
the FTM without invalidating it, which is exactly what separates the
paper's **mandatory** transitions from its **possible** ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import NoValidFTM
from repro.core.parameters import SystemContext
from repro.ftm.catalog import FTM_NAMES, PATTERN_CLASSES, check_ftm_name


@dataclass(frozen=True)
class ValidityReport:
    """The verdict for one FTM against one context."""

    ftm: str
    valid: bool           #: FT + A assumptions hold
    preferred: bool       #: R constraints also hold (no degradation)
    cost: float           #: resource cost (lower is better among valid FTMs)
    reasons: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.valid and not self.preferred


#: Qualitative → quantitative demand levels for the cost function.
_BANDWIDTH_DEMAND = {"high": 1.0, "low": 0.25, "n/a": 0.0}
_CPU_DEMAND = {"high": 1.0, "low": 0.4}
#: CPU weighs double: redundant execution costs energy, the scarcest budget
#: in the paper's long-lived space / automotive settings.
_CPU_WEIGHT = 2.0


def evaluate_ftm(ftm: str, context: SystemContext) -> ValidityReport:
    """Check one FTM against (FT, A, R); see module docstring for semantics."""
    check_ftm_name(ftm)
    pattern = PATTERN_CLASSES[ftm]
    reasons: List[str] = []

    # -- FT: required fault classes must be covered -------------------------------
    # "limp" is handled apart from FAULT_MODELS: gray failures are a
    # degradation, not a Table 1 fault class, and tolerance is declared
    # via TOLERATES_LIMP so over-coverage penalties and the Table 1
    # characteristics stay untouched.
    covered = set(pattern.FAULT_MODELS)
    required = context.ft.names()
    missing = sorted(required - covered - {"limp"})
    if missing:
        reasons.append(f"fault classes not covered: {', '.join(missing)}")
    if "limp" in required and not getattr(pattern, "TOLERATES_LIMP", False):
        reasons.append("cannot serve acceptably from a limping replica")

    # -- A: determinism and state access assumptions -------------------------------
    if not context.a.deterministic and not pattern.HANDLES_NON_DETERMINISM:
        reasons.append("application is non-deterministic")
    if pattern.REQUIRES_STATE_ACCESS and not context.a.state_accessible:
        reasons.append("application does not provide state access")

    valid = not reasons

    # -- R: resource fit (cost function, paper Sec. 2) ------------------------------
    bandwidth_demand = _BANDWIDTH_DEMAND[pattern.BANDWIDTH]
    cpu_demand = _CPU_DEMAND[pattern.CPU]
    resource_problems: List[str] = []
    if not context.r.bandwidth_ok and bandwidth_demand >= 1.0:
        resource_problems.append("insufficient bandwidth for checkpointing")
    if not context.r.cpu_ok and cpu_demand >= 1.0:
        resource_problems.append("insufficient CPU for redundant execution")
    preferred = valid and not resource_problems
    reasons.extend(resource_problems)

    # cost: weighted demand, penalised when the resource is scarce
    bandwidth_penalty = 3.0 if not context.r.bandwidth_ok else 1.0
    cpu_penalty = 3.0 if not context.r.cpu_ok else 1.0
    cost = (
        bandwidth_demand * bandwidth_penalty
        + _CPU_WEIGHT * cpu_demand * cpu_penalty
    )

    return ValidityReport(
        ftm=ftm,
        valid=valid,
        preferred=preferred,
        cost=round(cost, 4),
        reasons=tuple(reasons),
    )


def rank_ftms(
    context: SystemContext, candidates: Sequence[str] = FTM_NAMES
) -> List[ValidityReport]:
    """All candidates evaluated, best first (valid+preferred, then cost)."""
    reports = [evaluate_ftm(ftm, context) for ftm in candidates]
    return sorted(
        reports,
        key=lambda r: (not r.valid, not r.preferred, r.cost, r.ftm),
    )


def select_ftm(
    context: SystemContext, candidates: Sequence[str] = FTM_NAMES
) -> ValidityReport:
    """The best FTM for the context; raises :class:`NoValidFTM` if none fits.

    This is the "No generic solution" detector: a non-deterministic
    application without state access has no valid FTM in the
    illustrative set.
    """
    ranked = rank_ftms(context, candidates)
    best = ranked[0]
    if not best.valid:
        raise NoValidFTM(
            "no FTM satisfies the current (FT, A, R) context: "
            + "; ".join(f"{r.ftm}: {', '.join(r.reasons)}" for r in ranked)
        )
    return best


def next_best_ftm(
    context: SystemContext,
    exclude: Sequence[str] = (),
    candidates: Sequence[str] = FTM_NAMES,
    reachable: Optional[Callable[[str], bool]] = None,
) -> Optional[str]:
    """The best *valid* FTM outside ``exclude`` that is actually reachable.

    The degraded-mode fallback of the Adaptation Engine: when the target
    FTM cannot be installed (fetch exhausted, script rollback, all
    replicas down), this names the next-best candidate to try instead of
    giving up — ``reachable`` lets the caller restrict the ranking to
    FTMs its repository can build.  Returns ``None`` when nothing valid
    remains.
    """
    for report in rank_ftms(context, candidates):
        if not report.valid or report.ftm in exclude:
            continue
        if reachable is not None and not reachable(report.ftm):
            continue
        return report.ftm
    return None


def is_consistent(ftm: str, context: SystemContext) -> bool:
    """Is the deployed FTM still valid for the context (FT + A)?"""
    return evaluate_ftm(ftm, context).valid


def transition_necessity(ftm: str, context: SystemContext) -> str:
    """``"mandatory"``, ``"possible"`` or ``"none"``: the kind of the rule's verdict."""
    from repro.core.transition_graph import decide  # it imports this module

    return decide(ftm, context).kind
