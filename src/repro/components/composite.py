"""Composites: named assemblies of components with promoted services.

A composite is the unit the Adaptation Engine manipulates: the FTM on one
replica is a composite (Figure 6).  It offers

* a registry of inner components and their wires,
* *promotions* mapping external service names to inner services,
* an **input gate** implementing the paper's request-consistency rule
  (Sec. 5.3): during a reconfiguration the gate is closed, external
  invocations buffer, and they drain in the new configuration when the
  gate reopens,
* architectural integrity checks used by the script engine's
  transactional commit.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.components.errors import (
    UnknownComponentError,
    UnknownServiceError,
    WiringError,
)
from repro.components.model import Component, LifecycleState, Wire
from repro.kernel.sim import Event, Simulator


class Composite:
    """A reconfigurable assembly of components on one node."""

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.components: Dict[str, Component] = {}
        self.promotions: Dict[str, Tuple[str, str]] = {}  # external -> (component, service)
        self._gate_open = True
        self._gate_waiters: List[Event] = []
        self.buffered_while_closed = 0
        self._external_in_flight = 0
        self._drained: Optional[Event] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Composite {self.name} [{', '.join(sorted(self.components))}]>"

    # -- membership -----------------------------------------------------------

    def add(self, component: Component) -> None:
        """Insert a component (names are unique within the composite)."""
        if component.name in self.components:
            raise WiringError(
                f"composite {self.name!r} already has component {component.name!r}"
            )
        component.composite = self
        self.components[component.name] = component

    def remove(self, name: str) -> Component:
        """Detach a component (must be stopped, unwired and unpromoted)."""
        component = self.component(name)
        incoming = self.wires_into(name)
        if incoming:
            raise WiringError(
                f"component {name!r} still has incoming wires: "
                + ", ".join(str(w) for w in incoming)
            )
        promoted = [ext for ext, (comp, _s) in self.promotions.items() if comp == name]
        if promoted:
            raise WiringError(
                f"component {name!r} is the target of promotions {promoted}"
            )
        component.mark_removed()
        del self.components[name]
        component.composite = None
        return component

    def component(self, name: str) -> Component:
        """Look a member component up by name."""
        try:
            return self.components[name]
        except KeyError:
            raise UnknownComponentError(name, self.name) from None

    def has(self, name: str) -> bool:
        """Is there a member component with this name?"""
        return name in self.components

    # -- wiring queries ------------------------------------------------------------

    def wires(self) -> List[Wire]:
        """Every wire between member components."""
        out: List[Wire] = []
        for component in self.components.values():
            for reference in component.references.values():
                out.extend(reference.wires)
        return out

    def wires_into(self, name: str) -> List[Wire]:
        """Wires whose target is the named component."""
        return [w for w in self.wires() if w.target.name == name]

    def wires_out_of(self, name: str) -> List[Wire]:
        """Wires whose source is the named component."""
        return [w for w in self.wires() if w.source.name == name]

    # -- promotions ------------------------------------------------------------------

    def promote(self, external: str, component: str, service: str) -> None:
        """Expose an inner service under an external name."""
        inner = self.component(component)
        inner.service(service)  # existence check
        self.promotions[external] = (component, service)

    def demote(self, external: str) -> None:
        """Withdraw a promoted service."""
        if external not in self.promotions:
            raise UnknownServiceError(
                f"composite {self.name!r} has no promoted service {external!r}"
            )
        del self.promotions[external]

    def resolve(self, external: str) -> Tuple[Component, str]:
        """The (component, service) a promoted name points at."""
        try:
            component_name, service = self.promotions[external]
        except KeyError:
            raise UnknownServiceError(
                f"composite {self.name!r} has no promoted service {external!r} "
                f"(has: {sorted(self.promotions)})"
            ) from None
        return self.component(component_name), service

    # -- the input gate ---------------------------------------------------------------

    @property
    def gate_open(self) -> bool:
        return self._gate_open

    def close_gate(self) -> None:
        """Stop admitting external invocations (they buffer)."""
        self._gate_open = False

    def open_gate(self) -> None:
        """Re-admit external invocations; buffered ones drain in FIFO order."""
        self._gate_open = True
        waiters, self._gate_waiters = self._gate_waiters, []
        for event in waiters:
            event.trigger()

    def call(self, external: str, operation: str, *args: Any, **kwargs: Any) -> Generator:
        """Invoke a promoted service from outside the composite (generator).

        Past the gate, a started component's operation runs in this
        frame, as in :meth:`Reference.invoke`.
        """
        while not self._gate_open:
            gate = Event(self.sim, name=f"{self.name}.gate")
            self._gate_waiters.append(gate)
            self.buffered_while_closed += 1
            yield gate
        component, service = self.resolve(external)
        try:
            operate = component.services[service].operations[operation]
        except KeyError:
            operate = None  # the slow path raises the precise error
        self._external_in_flight += 1
        try:
            if operate is None or component.state is not LifecycleState.STARTED:
                result = yield from component.call(service, operation, *args, **kwargs)
            else:
                # the one-frame hop of Reference.invoke, behind the gate
                component._in_flight += 1
                component.invocation_count += 1
                try:
                    result = operate(*args, **kwargs)
                    if type(result) is GeneratorType:
                        result = yield from result
                finally:
                    component._in_flight -= 1
                    if component._in_flight == 0 and component._quiescent is not None:
                        component._quiescent.trigger()
        finally:
            self._external_in_flight -= 1
            if self._external_in_flight == 0 and self._drained is not None:
                self._drained.trigger()
        return result

    def drain(self) -> Generator:
        """Close the gate and wait until no external invocation is in flight.

        This is the reconfiguration-safe point of Sec. 5.3: once drained,
        no component of the composite is processing a request, so variable
        features can be stopped and replaced without stranding callers.
        Generator — drive with ``yield from composite.drain()``.
        """
        self.close_gate()
        if self._external_in_flight > 0:
            self._drained = Event(self.sim, name=f"{self.name}.drained")
            yield self._drained
            self._drained = None

    # -- integrity --------------------------------------------------------------------

    def integrity_violations(self) -> List[str]:
        """Architectural constraints checked at script commit time.

        * every *started* component's required references are wired;
        * every wire joins two components of this composite;
        * every promotion resolves to an existing component + service.
        """
        violations: List[str] = []
        for component in self.components.values():
            if component.state == LifecycleState.STARTED:
                for reference in component.references.values():
                    if not reference.satisfied():
                        violations.append(
                            f"started component {component.name!r} has unwired "
                            f"required reference {reference.name!r}"
                        )
            for reference in component.references.values():
                for wire in reference.wires:
                    if wire.target.name not in self.components:
                        violations.append(
                            f"wire {wire} targets a component outside "
                            f"composite {self.name!r}"
                        )
                    elif self.components[wire.target.name] is not wire.target:
                        violations.append(f"wire {wire} targets a stale component")
        for external, (component_name, service) in self.promotions.items():
            if component_name not in self.components:
                violations.append(
                    f"promotion {external!r} targets missing component "
                    f"{component_name!r}"
                )
            else:
                try:
                    self.components[component_name].service(service)
                except UnknownServiceError:
                    violations.append(
                        f"promotion {external!r} targets missing service "
                        f"{component_name}.{service}"
                    )
        return violations

    # -- snapshots (for the eval harness & debugging) -----------------------------------

    def architecture(self) -> Dict[str, Any]:
        """A structural snapshot: components, states, wires, promotions."""
        return {
            "name": self.name,
            "components": {
                name: component.state.value
                for name, component in sorted(self.components.items())
            },
            "wires": sorted(
                (w.source.name, w.reference, w.target.name, w.service)
                for w in self.wires()
            ),
            "promotions": dict(sorted(self.promotions.items())),
        }
