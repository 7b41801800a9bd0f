"""The (FT, A, R) parameter model (paper Sec. 2).

Three classes of parameters govern the choice of an FTM:

* **FT** — fault-tolerance requirements: the fault model to cover;
* **A**  — application characteristics: statefulness/state access and
  behavioural determinism;
* **R**  — available resources: bandwidth, CPU, energy.

``SystemContext`` bundles a snapshot of all three; variations of any of
them at runtime may invalidate the deployed FTM and trigger a transition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet


class FaultClass(enum.Enum):
    """The fault-model vocabulary of Table 1 (Avizienis et al. taxonomy)."""

    CRASH = "crash"
    TRANSIENT_VALUE = "transient_value"
    PERMANENT_VALUE = "permanent_value"
    LIMP = "limp"  # gray failure: a resource degrades without dying


@dataclass(frozen=True)
class FaultToleranceRequirements:
    """FT: the fault classes the system must currently tolerate."""

    fault_classes: FrozenSet[FaultClass] = frozenset({FaultClass.CRASH})

    @staticmethod
    def of(*classes: FaultClass) -> "FaultToleranceRequirements":
        return FaultToleranceRequirements(frozenset(classes))

    def requires(self, fault_class: FaultClass) -> bool:
        """Must this fault class be tolerated?"""
        return fault_class in self.fault_classes

    def names(self) -> FrozenSet[str]:
        """The required fault classes as strings (Table 1 vocabulary)."""
        return frozenset(fc.value for fc in self.fault_classes)


@dataclass(frozen=True)
class ApplicationCharacteristics:
    """A: what the protected application is like."""

    name: str = "counter"
    version: int = 1
    deterministic: bool = True
    state_accessible: bool = True

    def with_update(self, **changes) -> "ApplicationCharacteristics":
        """A copy with some characteristics changed."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ResourceState:
    """R: what the platform currently offers.

    ``bandwidth_ok`` / ``cpu_ok`` are the thresholded views the Monitoring
    Engine computes from its probes; the raw figures are kept for cost
    functions and reporting.
    """

    bandwidth_ok: bool = True
    cpu_ok: bool = True
    energy_ok: bool = True
    bandwidth_bytes_per_ms: float = 12_500.0
    cpu_headroom: float = 0.5

    def with_update(self, **changes) -> "ResourceState":
        """A copy with some resource figures changed."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SystemContext:
    """One (FT, A, R) snapshot."""

    ft: FaultToleranceRequirements = field(
        default_factory=FaultToleranceRequirements
    )
    a: ApplicationCharacteristics = field(
        default_factory=ApplicationCharacteristics
    )
    r: ResourceState = field(default_factory=ResourceState)

    def with_ft(self, ft: FaultToleranceRequirements) -> "SystemContext":
        """A copy with a new FT dimension."""
        return replace(self, ft=ft)

    def with_a(self, a: ApplicationCharacteristics) -> "SystemContext":
        """A copy with a new A dimension."""
        return replace(self, a=a)

    def with_r(self, r: ResourceState) -> "SystemContext":
        """A copy with a new R dimension."""
        return replace(self, r=r)
