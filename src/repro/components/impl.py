"""Implementation-side conventions: how Python classes become components.

A component implementation is a plain class deriving from
:class:`ComponentImpl` that declares its ports::

    class SyncAfterPBR(ComponentImpl):
        SERVICES = {"sync": ("after",)}          # service -> operations
        REFERENCES = {"state": Multiplicity.ONE}  # reference -> multiplicity

        def after(self, request, result):
            checkpoint = yield from self.ref("state").invoke("capture")
            ...

Operations may be generator functions (they can yield kernel wait
descriptors) or plain methods.  The runtime injects a :class:`NodeContext`
before any operation runs, giving the implementation access to its node,
the network, stable storage and the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.components.errors import ComponentError
from repro.components.model import (
    Component,
    Multiplicity,
    Reference,
    Service,
)
from repro.kernel.costs import CostModel
from repro.kernel.faults import FaultInjector
from repro.kernel.network import Network
from repro.kernel.node import Node
from repro.kernel.sim import Simulator
from repro.kernel.storage import StableStorage
from repro.kernel.trace import Trace


@dataclass
class NodeContext:
    """Everything an implementation may touch on its host."""

    sim: Simulator
    node: Node
    network: Network
    storage: StableStorage
    faults: FaultInjector
    costs: CostModel
    trace: Trace

    def mailbox(self, port: str):
        """The node-local mailbox for ``port``."""
        return self.network.bind(self.node.name, port)

    def send(self, destination: str, port: str, payload: Any, size: int = 256) -> None:
        """Send a datagram from this node."""
        self.network.send(self.node.name, destination, port, payload, size)

    def compute(self, duration_ms: float):
        """Charge CPU time on the host (``yield from ctx.compute(...)``)."""
        return self.node.compute(duration_ms)

    def compute_charge(self, duration_ms: float):
        """Flat form of :meth:`compute` — ``yield ctx.compute_charge(...)``.

        Same accounting and wait instants, no generator frame per
        computation; the request hot path uses this.
        """
        return self.node.compute_charge(duration_ms)


class ComponentImpl:
    """Base class for component implementations.

    Subclasses declare ``SERVICES`` (service name → tuple of operation
    method names) and ``REFERENCES`` (reference name → Multiplicity, or
    just the name for the default ``ONE``).
    """

    SERVICES: Mapping[str, Tuple[str, ...]] = {}
    REFERENCES: Union[Mapping[str, Multiplicity], Tuple[str, ...]] = {}

    #: The node context, set by :meth:`attach` (alias of ``context``; a
    #: plain attribute because every request hop reads it).
    ctx: NodeContext

    def __init__(self) -> None:
        self.component: Optional[Component] = None
        self.context: Optional[NodeContext] = None

    # -- wiring-time hooks -------------------------------------------------------

    def attach(self, component: Component, context: NodeContext) -> None:
        """Called by the runtime when the component is installed."""
        self.component = component
        self.context = self.ctx = context
        self.on_attach()

    def on_attach(self) -> None:
        """Subclass hook: runs once after install (ports are not wired yet)."""

    def on_start(self) -> None:
        """Subclass hook: runs on every lifecycle start."""

    def on_stop(self) -> None:
        """Subclass hook: runs when a stop completes (after quiescence)."""

    # -- conveniences ----------------------------------------------------------------

    def ref(self, name: str) -> Reference:
        """This component's reference by name."""
        assert self.component is not None, "implementation not attached"
        try:
            return self.component.references[name]
        except KeyError:
            return self.component.reference(name)  # precise error

    def prop(self, name: str, default: Any = None) -> Any:
        """This component's configuration property by name."""
        assert self.component is not None, "implementation not attached"
        return self.component.properties.get(name, default)

    # -- port construction (used by the runtime) ----------------------------------------

    @classmethod
    def declared_references(cls) -> Dict[str, Multiplicity]:
        declared = cls.REFERENCES
        if isinstance(declared, (tuple, list)):
            return {name: Multiplicity.ONE for name in declared}
        return dict(declared)

    def build_services(self) -> Dict[str, Service]:
        """Materialise the declared SERVICES against this instance."""
        services: Dict[str, Service] = {}
        for service_name, operation_names in type(self).SERVICES.items():
            operations = {}
            for op_name in operation_names:
                method = getattr(self, op_name, None)
                if method is None or not callable(method):
                    raise ComponentError(
                        f"{type(self).__name__} declares operation "
                        f"{service_name}.{op_name} but has no such method"
                    )
                operations[op_name] = method
            services[service_name] = Service(service_name, operations)
        return services

    def build_references(self, component: Component) -> Dict[str, Reference]:
        """Materialise the declared REFERENCES for a component."""
        return {
            name: Reference(component, name, multiplicity)
            for name, multiplicity in self.declared_references().items()
        }
