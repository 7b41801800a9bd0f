"""The preprogrammed-adaptation baseline (related work of Sec. 6.2 / [8,9,10]).

In preprogrammed adaptation, "all FTMs necessary during the service life
of the system must be known and deployed from the beginning and
adaptation consists in choosing the appropriate execution branch or
tuning some parameters".  This module implements exactly that comparator:

* each variable-feature slot is a **branching component** embedding every
  variant of the illustrative set;
* a *switch* sets a ``strategy`` property on the three slots — a
  parametric branch selection, milliseconds instead of the agile
  transition's ~1 s;
* the price is permanent **dead code** (every variant stays loaded) and a
  hard ceiling: an FTM unknown at design time cannot be integrated at
  all, which is the agility argument the paper's evaluation makes.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.components.impl import ComponentImpl
from repro.components.model import Multiplicity
from repro.components.spec import AssemblySpec, ComponentSpec
from repro.ftm.catalog import FTM_NAMES, VARIABLE_FEATURES, _PROMOTIONS, _WIRES
from repro.ftm.errors import UnknownFTM
from repro.ftm.failure_detector import HeartbeatFailureDetector
from repro.ftm.protocol import FTProtocol
from repro.ftm.reply_log import ReplyLog
from repro.ftm.server_component import AppServer


def _drive(value):
    import inspect

    if inspect.isgenerator(value):
        result = yield from value
        return result
    return value
    yield  # pragma: no cover - generator marker


class _BranchingSlot(ComponentImpl):
    """A variable-feature slot with every variant preloaded (dead code!)."""

    SLOT = "proceed"  # overridden

    def on_attach(self) -> None:
        self._variants: Dict[str, ComponentImpl] = {}
        for ftm in FTM_NAMES:
            impl_class = VARIABLE_FEATURES[ftm][self.SLOT]
            if impl_class.__name__ not in self._variants:
                variant = impl_class()
                # variants share this slot's component handle: same ports,
                # same properties, same node context
                variant.attach(self.component, self.context)
                self._variants[impl_class.__name__] = variant

    def _active(self) -> ComponentImpl:
        strategy = self.prop("strategy", "pbr")
        if strategy not in VARIABLE_FEATURES:
            raise UnknownFTM(
                f"preprogrammed system has no branch for {strategy!r} — "
                "unforeseen FTMs cannot be integrated without redeployment"
            )
        impl_class = VARIABLE_FEATURES[strategy][self.SLOT]
        return self._variants[impl_class.__name__]

    @property
    def loaded_variant_count(self) -> int:
        return len(self._variants)


class BranchingSyncBefore(_BranchingSlot):
    """syncBefore slot with every strategy's variant resident."""

    SLOT = "syncBefore"
    SERVICES = {"sync": ("before", "on_peer")}
    REFERENCES = {"exec": Multiplicity.ONE, "log": Multiplicity.ONE}

    def before(self, request, info) -> Generator:
        """Delegate to the active strategy's before step."""
        result = yield from _drive(self._active().before(request, info))
        return result

    def on_peer(self, envelope, info) -> Generator:
        """Delegate to the active strategy's peer handler."""
        result = yield from _drive(self._active().on_peer(envelope, info))
        return result


class BranchingProceed(_BranchingSlot):
    """proceed slot with every strategy's variant resident."""

    SLOT = "proceed"
    SERVICES = {"exec": ("execute",)}
    REFERENCES = {"server": Multiplicity.ONE}

    def execute(self, request, info) -> Generator:
        """Delegate to the active strategy's execution step."""
        result = yield from _drive(self._active().execute(request, info))
        return result


class BranchingSyncAfter(_BranchingSlot):
    """syncAfter slot with every strategy's variant resident."""

    SLOT = "syncAfter"
    SERVICES = {"sync": ("after", "on_peer")}
    REFERENCES = {
        "server": Multiplicity.ONE,
        "log": Multiplicity.ONE,
        "exec": Multiplicity.ONE,
    }

    def after(self, request, result, info) -> Generator:
        """Delegate to the active strategy's agreement step."""
        final = yield from _drive(self._active().after(request, result, info))
        return final

    def on_peer(self, envelope, info) -> Generator:
        """Delegate to the active strategy's peer handler."""
        result = yield from _drive(self._active().on_peer(envelope, info))
        return result


#: Packaged size of a branching slot = the sum of its variants (dead code
#: is resident code).
def _slot_size(slot: str) -> int:
    base = {"syncBefore": 3072, "proceed": 4096, "syncAfter": 4608}[slot]
    unique = {VARIABLE_FEATURES[ftm][slot].__name__ for ftm in FTM_NAMES}
    return base * len(unique)


def preprogrammed_assembly(
    ftm: str,
    role: str,
    peer: str,
    app: str = "counter",
    assertion: str = "always-true",
    composite: str = "ftm",
    fd_period: float = 20.0,
    fd_timeout: float = 60.0,
) -> AssemblySpec:
    """The all-branches-resident blueprint of one replica side."""
    components = (
        ComponentSpec.make(
            "protocol", FTProtocol, {"role": role, "peer": peer}, size=8192
        ),
        ComponentSpec.make(
            "syncBefore",
            BranchingSyncBefore,
            {"strategy": ftm},
            size=_slot_size("syncBefore"),
        ),
        ComponentSpec.make(
            "proceed", BranchingProceed, {"strategy": ftm}, size=_slot_size("proceed")
        ),
        ComponentSpec.make(
            "syncAfter",
            BranchingSyncAfter,
            {"strategy": ftm, "assertion": assertion},
            size=_slot_size("syncAfter"),
        ),
        ComponentSpec.make("replyLog", ReplyLog, size=2048),
        ComponentSpec.make("server", AppServer, {"app": app}, size=6144),
        ComponentSpec.make(
            "failureDetector",
            HeartbeatFailureDetector,
            {"peer": peer, "period": fd_period, "timeout": fd_timeout},
            size=2560,
        ),
    )
    return AssemblySpec(
        name=composite, components=components, wires=_WIRES, promotions=_PROMOTIONS
    )


class PreprogrammedAdaptation:
    """Deploy-once, branch-switch adaptation over an FTMPair-like object."""

    def __init__(self, world, pair):
        self.world = world
        self.pair = pair
        self.switch_history: List[dict] = []

    def switch(self, target_ftm: str) -> Generator:
        """Parametric switch: set the strategy property on the three slots.

        Quiesces the composite (the switch must not race a request), sets
        the properties, reopens — a handful of milliseconds.
        """
        if target_ftm not in FTM_NAMES:
            raise UnknownFTM(
                f"preprogrammed system has no branch for {target_ftm!r}"
            )
        started = self.world.now
        for replica in self.pair.replicas:
            if not replica.alive:
                continue
            composite = replica.composite
            yield from composite.drain()
            try:
                for slot in ("syncBefore", "proceed", "syncAfter"):
                    yield from replica.runtime.set_property(
                        self.pair.composite_name, slot, "strategy", target_ftm
                    )
            finally:
                composite.open_gate()
        self.pair.ftm = target_ftm
        record = {
            "target": target_ftm,
            "duration_ms": self.world.now - started,
        }
        self.switch_history.append(record)
        self.world.trace.record(
            "adaptation",
            "preprogrammed_switch",
            target=target_ftm,
            duration=record["duration_ms"],
        )
        return record

    # -- dead-code accounting (the cost of preprogramming) ----------------------------

    def resident_bytes(self) -> int:
        """Total packaged bytes resident on one replica."""
        spec = preprogrammed_assembly(
            self.pair.ftm, role="master", peer="peer"
        )
        return sum(component.size for component in spec.components)

    def resident_variant_count(self) -> int:
        """How many variant implementations stay loaded per replica."""
        replica = self.pair.replicas[0]
        total = 0
        for slot in ("syncBefore", "proceed", "syncAfter"):
            total += replica.composite.component(slot).implementation.loaded_variant_count
        return total
