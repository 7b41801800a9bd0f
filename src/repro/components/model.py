"""The reflective component model: components, services, references, wires.

This is the FraSCAti/SCA substitute (see DESIGN.md).  It implements the
"minimal API for fine-grained adaptation" the paper identifies:

* control over the component lifecycle at runtime (add, remove, start,
  stop) — :class:`Component` state machine;
* control over interactions between components (create and remove
  reference–service connections) — :class:`Reference` / :class:`Wire`;
* consistency of reconfigurations — quiescence on stop (Sec. 5.3) here,
  transactional scripts in :mod:`repro.script`.

Components run *inside* the simulation: every operation invocation is a
generator that may yield kernel wait descriptors, so protocol components
can block on the network, charge CPU time, and be replaced mid-run.
"""

from __future__ import annotations

import enum
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.components.errors import (
    LifecycleError,
    UnknownReferenceError,
    UnknownServiceError,
    WiringError,
)
from repro.kernel.sim import Event


class LifecycleState(enum.Enum):
    """The component lifecycle of the reflective runtime."""

    INSTALLED = "installed"
    STARTED = "started"
    STOPPING = "stopping"  # waiting for quiescence
    STOPPED = "stopped"
    REMOVED = "removed"


class Multiplicity(enum.Enum):
    """How many wires a reference accepts / requires."""

    ONE = "1..1"          # exactly one wire, required for start integrity
    OPTIONAL = "0..1"     # zero or one wire
    MANY = "0..n"         # any number (used by multi-backup variants)
    AT_LEAST_ONE = "1..n"

    @property
    def required(self) -> bool:
        return self in (Multiplicity.ONE, Multiplicity.AT_LEAST_ONE)

    @property
    def multiple(self) -> bool:
        return self in (Multiplicity.MANY, Multiplicity.AT_LEAST_ONE)


class Service:
    """A named provided port: a set of operations bound to the implementation."""

    def __init__(self, name: str, operations: Dict[str, Callable]):
        self.name = name
        self.operations = dict(operations)

    def operation(self, name: str) -> Callable:
        """Look an operation up by name."""
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownServiceError(
                f"service {self.name!r} has no operation {name!r} "
                f"(has: {sorted(self.operations)})"
            ) from None


class Wire:
    """A connection from a component reference to a component service."""

    __slots__ = ("source", "reference", "target", "service", "operations")

    def __init__(self, source: "Component", reference: str, target: "Component", service: str):
        self.source = source
        self.reference = reference
        self.target = target
        self.service = service
        # the target service's operation table, read by every hop: services
        # are materialised once per Component, so it never goes stale
        self.operations = target.services[service].operations

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Wire {self.source.name}.{self.reference} -> "
            f"{self.target.name}.{self.service}>"
        )


class Reference:
    """A named required port; invocation goes through its wire(s)."""

    def __init__(self, component: "Component", name: str, multiplicity: Multiplicity):
        self.component = component
        self.name = name
        self.multiplicity = multiplicity
        self.wires: List[Wire] = []

    @property
    def wired(self) -> bool:
        return bool(self.wires)

    def satisfied(self) -> bool:
        """Does the wiring meet the reference's multiplicity contract?"""
        if self.multiplicity.required:
            return bool(self.wires)
        return True

    def invoke(self, operation: str, *args: Any, **kwargs: Any) -> Generator:
        """Invoke through the single wire (generator; use ``yield from``).

        One frame per hop: a started target's operation runs right here,
        under the same in-flight and invocation bookkeeping as
        :meth:`Component.call`, which stays the only slow path (a target
        not started or removed, or an unknown operation).
        """
        if not self.wires:
            raise WiringError(
                f"reference {self.component.name}.{self.name} is not wired"
            )
        wire = self.wires[0]
        target = wire.target
        operate = wire.operations.get(operation)
        if operate is None or target.state is not LifecycleState.STARTED:
            result = yield from target.call(wire.service, operation, *args, **kwargs)
            return result
        target._in_flight += 1
        target.invocation_count += 1
        try:
            result = operate(*args, **kwargs)
            # generators cannot be subclassed: `type is` == isinstance here
            if type(result) is GeneratorType:
                result = yield from result
        finally:
            target._in_flight -= 1
            if target._in_flight == 0 and target._quiescent is not None:
                target._quiescent.trigger()
        return result


class Component:
    """A runtime component: implementation + ports + lifecycle + quiescence."""

    def __init__(
        self,
        name: str,
        implementation: Any,
        sim,
        services: Optional[Dict[str, Service]] = None,
        references: Optional[Dict[str, Reference]] = None,
        properties: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.implementation = implementation
        self.sim = sim
        self.state = LifecycleState.INSTALLED
        self.services: Dict[str, Service] = services or {}
        self.references: Dict[str, Reference] = references or {}
        self.properties: Dict[str, Any] = dict(properties or {})
        self.composite = None  # back-pointer, set by Composite.add
        self._in_flight = 0
        self._quiescent: Optional[Event] = None
        self._pending_start: List[Event] = []
        self.invocation_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Component {self.name} {self.state.value}>"

    # -- ports ----------------------------------------------------------------

    def service(self, name: str) -> Service:
        """Look a provided service up by name."""
        try:
            return self.services[name]
        except KeyError:
            raise UnknownServiceError(
                f"component {self.name!r} has no service {name!r} "
                f"(has: {sorted(self.services)})"
            ) from None

    def reference(self, name: str) -> Reference:
        """Look a required reference up by name."""
        try:
            return self.references[name]
        except KeyError:
            raise UnknownReferenceError(
                f"component {self.name!r} has no reference {name!r} "
                f"(has: {sorted(self.references)})"
            ) from None

    # -- properties --------------------------------------------------------------

    def set_property(self, key: str, value: Any) -> None:
        """Set a configuration property."""
        self.properties[key] = value

    def get_property(self, key: str, default: Any = None) -> Any:
        """Read a configuration property."""
        return self.properties.get(key, default)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self.state == LifecycleState.STARTED

    @property
    def quiescent(self) -> bool:
        return self._in_flight == 0

    def start(self) -> None:
        """Move to STARTED and release invocations buffered while stopped."""
        if self.state == LifecycleState.REMOVED:
            raise LifecycleError(f"cannot start removed component {self.name!r}")
        if self.state == LifecycleState.STOPPING:
            raise LifecycleError(
                f"component {self.name!r} is stopping; wait for quiescence"
            )
        self.state = LifecycleState.STARTED
        pending, self._pending_start = self._pending_start, []
        for event in pending:
            event.trigger()

    def stop(self) -> Generator:
        """Stop with quiescence: waits for in-flight invocations to finish.

        Generator — drive with ``yield from component.stop()``.  New
        invocations arriving after stop() begins are buffered and will run
        when the component (or its replacement's composite gate) releases
        them, which is exactly the paper's Sec. 5.3 request-consistency rule.
        """
        if self.state in (LifecycleState.STOPPED, LifecycleState.INSTALLED):
            return
        if self.state == LifecycleState.REMOVED:
            raise LifecycleError(f"cannot stop removed component {self.name!r}")
        self.state = LifecycleState.STOPPING
        if self._in_flight > 0:
            self._quiescent = Event(self.sim, name=f"{self.name}.quiescent")
            yield self._quiescent
            self._quiescent = None
        self.state = LifecycleState.STOPPED

    def mark_removed(self) -> None:
        """Detach the component permanently (must be stopped and unwired)."""
        if self.state == LifecycleState.STARTED or self.state == LifecycleState.STOPPING:
            raise LifecycleError(
                f"cannot remove component {self.name!r} while {self.state.value}"
            )
        if any(ref.wires for ref in self.references.values()):
            raise WiringError(f"component {self.name!r} still has outgoing wires")
        self.state = LifecycleState.REMOVED
        # Wake any invocation buffered while we were stopped: it will observe
        # the REMOVED state and raise instead of hanging forever.
        pending, self._pending_start = self._pending_start, []
        for event in pending:
            event.trigger()

    def dismantle(self) -> None:
        """End of life: drop every back-pointer that ties a reference cycle.

        Called for each installed component when its world closes (never
        earlier: script rollback re-inserts removed components).  Keeps
        :attr:`implementation` and its context for post-mortem readers.
        """
        for reference in self.references.values():
            reference.wires = []
            reference.component = None
        self.services = {}
        self.references = {}
        self.composite = None
        self.implementation.component = None

    # -- invocation ------------------------------------------------------------------

    def call(self, service: str, operation: str, *args: Any, **kwargs: Any) -> Generator:
        """Invoke ``service.operation`` (generator; use ``yield from``).

        Invocations on a non-started component wait until it is started —
        this is the "block and buffer inputs" half of quiescence.  The
        slow path of every hop: :meth:`Reference.invoke` and
        :meth:`Composite.call` run a started component's operation
        themselves and come here only for the gate, the removed-component
        error and the unknown-operation error.
        """
        while self.state is not LifecycleState.STARTED:
            if self.state is LifecycleState.REMOVED:
                raise LifecycleError(
                    f"invocation on removed component {self.name!r}"
                )
            gate = Event(self.sim, name=f"{self.name}.await_start")
            self._pending_start.append(gate)
            yield gate

        target = self.service(service).operation(operation)
        self._in_flight += 1
        self.invocation_count += 1
        try:
            result = target(*args, **kwargs)
            # generators cannot be subclassed: `type is` == isinstance here
            if type(result) is GeneratorType:
                result = yield from result
        finally:
            self._in_flight -= 1
            if self._in_flight == 0 and self._quiescent is not None:
                self._quiescent.trigger()
        return result


def connect(source: Component, reference: str, target: Component, service: str) -> Wire:
    """Create a wire; validates ports and multiplicity."""
    ref = source.reference(reference)
    target.service(service)  # existence check
    if not ref.multiplicity.multiple and ref.wires:
        raise WiringError(
            f"reference {source.name}.{reference} already wired "
            f"(multiplicity {ref.multiplicity.value})"
        )
    wire = Wire(source, reference, target, service)
    ref.wires.append(wire)
    return wire


def disconnect(source: Component, reference: str, target: Component, service: str) -> None:
    """Remove the matching wire."""
    ref = source.reference(reference)
    for wire in ref.wires:
        if wire.target is target and wire.service == service:
            ref.wires.remove(wire)
            return
    raise WiringError(
        f"no wire {source.name}.{reference} -> {target.name}.{service}"
    )
