"""The per-node component runtime (the middleware of Figure 1).

A :class:`ComponentRuntime` lives on one node and owns the composites
deployed there.  Every structural operation is a *generator* that charges
calibrated virtual time (see :mod:`repro.kernel.costs`) — that is what
makes Table 3 (deployment vs transition time) measurable — and records a
trace event the Monitoring Engine can observe.

The runtime is the only way higher layers manipulate architecture; the
script interpreter (:mod:`repro.script`) drives it, never the model
classes directly.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.components.composite import Composite
from repro.components.errors import ComponentError, LifecycleError
from repro.components.impl import ComponentImpl, NodeContext
from repro.components.model import Component, connect, disconnect
from repro.components.spec import AssemblySpec, ComponentSpec
from repro.kernel.costs import CostModel
from repro.kernel.node import Node


def make_runtime(world, node: Node) -> "ComponentRuntime":
    """Build a runtime for ``node`` wired to a :class:`repro.kernel.World`."""
    context = NodeContext(
        sim=world.sim,
        node=node,
        network=world.network,
        storage=world.storage,
        faults=world.faults,
        costs=world.costs,
        trace=world.trace,
    )
    return ComponentRuntime(context)


class ComponentRuntime:
    """Reflective runtime support on one node."""

    def __init__(self, context: NodeContext):
        self.context = context
        self.node: Node = context.node
        self.costs: CostModel = context.costs
        self.composites: Dict[str, Composite] = {}
        self.booted = False
        #: Every component this runtime ever installed, dismantled at close.
        self._installed: List[Component] = []
        self.node.on_crash(lambda _n: self._on_node_crash())

    def _on_node_crash(self) -> None:
        """Volatile middleware state is lost with the node."""
        self.composites.clear()
        self.booted = False

    def dismantle(self) -> None:
        """Break the component layer's cycles (:meth:`World.close` calls this).

        Every component installed here, live, removed or lost with a
        crashed node, drops its ports and back-pointers, so the finished
        mission is freed by reference counting.
        """
        for component in self._installed:
            component.dismantle()
        self._installed.clear()

    # -- boot ----------------------------------------------------------------------

    def boot(self) -> Generator:
        """Start the middleware platform on this node."""
        if self.booted:
            return
        yield self.node.compute_charge(self.costs.runtime_boot)
        self.booted = True
        self.context.trace.record("runtime", "boot", node=self.node.name)

    def require_booted(self) -> None:
        """Raise unless :meth:`boot` has completed on this node."""
        if not self.booted:
            raise ComponentError(f"runtime on {self.node.name!r} is not booted")

    # -- composites ----------------------------------------------------------------

    def create_composite(self, name: str) -> Generator:
        """Instantiate an empty composite (generator, charges time)."""
        self.require_booted()
        if name in self.composites:
            raise ComponentError(
                f"composite {name!r} already exists on {self.node.name!r}"
            )
        yield self.node.compute_charge(self.costs.composite_create)
        composite = Composite(name, self.context.sim)
        self.composites[name] = composite
        self.context.trace.record(
            "runtime", "composite_create", node=self.node.name, composite=name
        )
        return composite

    def composite(self, name: str) -> Composite:
        """Look a deployed composite up by name."""
        try:
            return self.composites[name]
        except KeyError:
            raise ComponentError(
                f"no composite {name!r} on node {self.node.name!r}"
            ) from None

    def destroy_composite(self, name: str) -> Generator:
        """Stop, unwire and remove everything, then drop the composite."""
        composite = self.composite(name)
        # Stop and remove everything inside, leaves first (no incoming wires).
        for component in list(composite.components.values()):
            yield from component.stop()
        for component in list(composite.components.values()):
            for reference in component.references.values():
                for wire in list(reference.wires):
                    yield from self.unwire(
                        composite.name,
                        wire.source.name,
                        wire.reference,
                        wire.target.name,
                        wire.service,
                    )
        composite.promotions.clear()
        for component_name in list(composite.components):
            yield from self.remove_component(name, component_name)
        del self.composites[name]
        self.context.trace.record(
            "runtime", "composite_destroy", node=self.node.name, composite=name
        )

    # -- components --------------------------------------------------------------------

    def install(
        self, composite_name: str, spec: ComponentSpec, preloaded: bool = False
    ) -> Generator:
        """Instantiate a component from its spec inside a composite.

        ``preloaded=True`` means the component was already fetched and
        instantiated during transition-package deployment, so only a cheap
        attach is charged (the script engine uses this; full assembly
        deployment pays the full install cost).
        """
        self.require_booted()
        composite = self.composite(composite_name)
        cost = self.costs.component_attach if preloaded else self.costs.component_install
        yield self.node.compute_charge(cost)
        implementation = spec.impl_class()
        if not isinstance(implementation, ComponentImpl):
            raise ComponentError(
                f"{spec.impl_class.__name__} does not derive from ComponentImpl"
            )
        component = Component(
            name=spec.name,
            implementation=implementation,
            sim=self.context.sim,
            properties=spec.properties_dict(),
        )
        self._installed.append(component)
        component.services = implementation.build_services()
        component.references = implementation.build_references(component)
        implementation.attach(component, self.context)
        composite.add(component)
        self.context.trace.record(
            "runtime",
            "install",
            node=self.node.name,
            composite=composite_name,
            component=spec.name,
            impl=spec.impl_class.__name__,
        )
        return component

    def start_component(self, composite_name: str, component_name: str) -> Generator:
        """Lifecycle start (releases buffered invocations)."""
        composite = self.composite(composite_name)
        component = composite.component(component_name)
        yield self.node.compute_charge(self.costs.component_start)
        component.start()
        component.implementation.on_start()
        self.context.trace.record(
            "runtime",
            "start",
            node=self.node.name,
            composite=composite_name,
            component=component_name,
        )

    def stop_component(self, composite_name: str, component_name: str) -> Generator:
        """Stop with quiescence (may block until in-flight work drains)."""
        composite = self.composite(composite_name)
        component = composite.component(component_name)
        yield self.node.compute_charge(self.costs.component_stop)
        yield from component.stop()
        component.implementation.on_stop()
        self.context.trace.record(
            "runtime",
            "stop",
            node=self.node.name,
            composite=composite_name,
            component=component_name,
        )

    def remove_component(self, composite_name: str, component_name: str) -> Generator:
        """Detach a stopped, unwired component from its composite."""
        composite = self.composite(composite_name)
        yield self.node.compute_charge(self.costs.component_remove)
        composite.remove(component_name)
        self.context.trace.record(
            "runtime",
            "remove",
            node=self.node.name,
            composite=composite_name,
            component=component_name,
        )

    def set_property(
        self, composite_name: str, component_name: str, key: str, value: Any
    ) -> Generator:
        """Set a component property (charges one script step)."""
        composite = self.composite(composite_name)
        component = composite.component(component_name)
        yield self.node.compute_charge(self.costs.script_step)
        component.set_property(key, value)
        self.context.trace.record(
            "runtime",
            "set_property",
            node=self.node.name,
            component=component_name,
            key=key,
        )

    # -- wires -------------------------------------------------------------------------

    def wire(
        self,
        composite_name: str,
        source: str,
        reference: str,
        target: str,
        service: str,
    ) -> Generator:
        """Create a reference→service wire between two members."""
        composite = self.composite(composite_name)
        yield self.node.compute_charge(self.costs.wire_connect)
        connect(
            composite.component(source),
            reference,
            composite.component(target),
            service,
        )
        self.context.trace.record(
            "runtime",
            "wire",
            node=self.node.name,
            source=source,
            reference=reference,
            target=target,
            service=service,
        )

    def unwire(
        self,
        composite_name: str,
        source: str,
        reference: str,
        target: str,
        service: str,
    ) -> Generator:
        """Remove a reference→service wire."""
        composite = self.composite(composite_name)
        yield self.node.compute_charge(self.costs.wire_disconnect)
        disconnect(
            composite.component(source),
            reference,
            composite.component(target),
            service,
        )
        self.context.trace.record(
            "runtime",
            "unwire",
            node=self.node.name,
            source=source,
            reference=reference,
            target=target,
            service=service,
        )

    # -- whole-assembly deployment ----------------------------------------------------

    def deploy(self, spec: AssemblySpec) -> Generator:
        """Deploy a full assembly from its blueprint (Table 3, first row).

        Boots the runtime if needed, instantiates the composite, installs
        every component, creates wires and promotions, starts everything.
        """
        problems = spec.validate()
        if problems:
            raise ComponentError(
                f"invalid assembly {spec.name!r}: " + "; ".join(problems)
            )
        if not self.booted:
            yield from self.boot()
        composite = yield from self.create_composite(spec.name)
        for component_spec in spec.components:
            yield from self.install(spec.name, component_spec)
        for wire_spec in spec.wires:
            yield from self.wire(
                spec.name,
                wire_spec.source,
                wire_spec.reference,
                wire_spec.target,
                wire_spec.service,
            )
        for promotion in spec.promotions:
            composite.promote(promotion.external, promotion.component, promotion.service)
        for component_spec in spec.components:
            yield from self.start_component(spec.name, component_spec.name)
        violations = composite.integrity_violations()
        if violations:
            raise LifecycleError(
                f"deployed assembly {spec.name!r} violates integrity: "
                + "; ".join(violations)
            )
        self.context.trace.record(
            "runtime", "deploy", node=self.node.name, assembly=spec.name
        )
        return composite
