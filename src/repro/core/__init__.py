"""The paper's primary contribution: agile adaptation of FTMs.

Public surface::

    from repro.core import (
        SystemContext, FaultClass, evaluate_ftm, select_ftm,
        Repository, AdaptationEngine, MonitoringEngine, ResilienceManager,
        SystemManager, PreprogrammedAdaptation,
    )
"""

from repro.core.adaptation_engine import (
    AdaptationEngine,
    ReplicaTransitionReport,
    TransitionReport,
)
from repro.core.consistency import (
    ValidityReport,
    evaluate_ftm,
    next_best_ftm,
    rank_ftms,
    select_ftm,
)
from repro.core.errors import (
    AdaptationError,
    NoValidFTM,
    PackageFetchFailed,
    PackageRejected,
    TransitionFailed,
)
from repro.core.monitoring import MonitoringEngine, Thresholds, Trigger
from repro.core.parameters import (
    ApplicationCharacteristics,
    FaultClass,
    FaultToleranceRequirements,
    ResourceState,
    SystemContext,
)
from repro.core.phases import Phase, PhaseManager, PhaseSchedule
from repro.core.preprogrammed import (
    PreprogrammedAdaptation,
    preprogrammed_assembly,
)
from repro.core.repository import PACKAGE_PORT, Repository, spec_architecture
from repro.core.resilience import Proposal, ResilienceManager, SystemManager
from repro.core.stability import (
    OscillationOutcome,
    StabilityViolation,
    replay_oscillation,
    verify_no_oscillation,
)
from repro.core.transition import (
    PackageChunk,
    PackageChunkRequest,
    TransitionPackage,
    build_package,
    package_blob,
    package_checksum,
)
from repro.core.transition_graph import (
    EVENTS,
    FIGURE2_EDGES,
    FIGURE2_NODES,
    ParameterEvent,
    ScenarioEdge,
    ScenarioState,
    build_scenario_graph,
    event,
    figure2_graph,
    select_target,
    state_label,
)

__all__ = [
    "AdaptationEngine",
    "ReplicaTransitionReport",
    "TransitionReport",
    "ValidityReport",
    "evaluate_ftm",
    "next_best_ftm",
    "rank_ftms",
    "select_ftm",
    "AdaptationError",
    "NoValidFTM",
    "PackageFetchFailed",
    "PackageRejected",
    "TransitionFailed",
    "MonitoringEngine",
    "Thresholds",
    "Trigger",
    "ApplicationCharacteristics",
    "FaultClass",
    "FaultToleranceRequirements",
    "ResourceState",
    "SystemContext",
    "Phase",
    "PhaseManager",
    "PhaseSchedule",
    "PreprogrammedAdaptation",
    "preprogrammed_assembly",
    "PACKAGE_PORT",
    "Repository",
    "spec_architecture",
    "Proposal",
    "ResilienceManager",
    "SystemManager",
    "OscillationOutcome",
    "StabilityViolation",
    "replay_oscillation",
    "verify_no_oscillation",
    "TransitionPackage",
    "PackageChunk",
    "PackageChunkRequest",
    "build_package",
    "package_blob",
    "package_checksum",
    "EVENTS",
    "FIGURE2_EDGES",
    "FIGURE2_NODES",
    "ParameterEvent",
    "ScenarioEdge",
    "ScenarioState",
    "build_scenario_graph",
    "event",
    "figure2_graph",
    "select_target",
    "state_label",
]
