"""One replica of a deployed FTM: node + runtime + message pumps.

The pumps are the glue between the network substrate and the component
world: the request pump feeds client requests through the composite's
promoted ``request`` service, the peer pump feeds inter-replica messages
through ``peer``.  Both go through the composite **gate**, so closing the
gate during a transition buffers traffic exactly as Sec. 5.3 prescribes.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.components.composite import Composite
from repro.components.errors import ComponentError
from repro.components.runtime import ComponentRuntime
from repro.components.spec import AssemblySpec
from repro.kernel.node import Node


class Replica:
    """One side of an FTM pair."""

    def __init__(self, world, node: Node, composite_name: str = "ftm"):
        self.world = world
        self.node = node
        self.composite_name = composite_name
        # one runtime per node per world: redeploys share the middleware
        self.runtime: ComponentRuntime = world.runtime_for(node)
        self.composite: Optional[Composite] = None
        self.deployed_ftm: Optional[str] = None
        self._pumps = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Replica {self.node.name}>"

    # -- deployment -----------------------------------------------------------------

    def deploy(self, spec: AssemblySpec) -> Generator:
        """Deploy the FTM composite on this node and start the pumps."""
        self.composite = yield from self.runtime.deploy(spec)
        self.start_pumps()
        return self.composite

    def start_pumps(self) -> None:
        """Spawn the request and peer pumps (idempotent)."""
        if any(pump.alive for pump in self._pumps):
            return  # already pumping (e.g. redeployment on a live node)
        self._pumps = [
            self.node.spawn(self._request_pump(), name="request-pump"),
            self.node.spawn(self._peer_pump(), name="peer-pump"),
        ]

    # -- pumps ----------------------------------------------------------------------------

    def _request_pump(self) -> Generator:
        mailbox = self.world.network.bind(self.node.name, "requests")
        while True:
            message = yield mailbox.get()
            composite = self.composite
            if composite is None:  # pragma: no cover - pump killed on crash
                return
            try:
                yield from composite.call("request", "handle", message)
            except ComponentError as exc:
                self.world.trace.record(
                    "replica",
                    "request_error",
                    node=self.node.name,
                    error=str(exc),
                )

    def _peer_pump(self) -> Generator:
        mailbox = self.world.network.bind(self.node.name, "peer")
        while True:
            message = yield mailbox.get()
            composite = self.composite
            if composite is None:  # pragma: no cover - pump killed on crash
                return
            try:
                yield from composite.call("peer", "deliver", message)
            except ComponentError as exc:
                self.world.trace.record(
                    "replica",
                    "peer_error",
                    node=self.node.name,
                    error=str(exc),
                )

    # -- management conveniences ----------------------------------------------------------

    def control(self, operation: str, *args) -> Generator:
        """Invoke the protocol's control service (generator)."""
        result = yield from self.composite.call("control", operation, *args)
        return result

    def control_internal(self, operation: str, *args) -> Generator:
        """Control invocation that bypasses the composite gate.

        Used by the Adaptation Engine *during* a reconfiguration (the gate
        is closed then); external callers must use :meth:`control`.
        """
        protocol = self.composite.component("protocol")
        result = yield from protocol.call("control", operation, *args)
        return result

    def describe(self) -> Generator:
        """The protocol's role/peer view (generator)."""
        info = yield from self.control("describe")
        return info

    @property
    def alive(self) -> bool:
        return self.node.is_up and self.composite is not None

    def role(self) -> str:
        """Peek at the protocol's role property (no simulation time needed)."""
        if self.composite is None or not self.composite.has("protocol"):
            return "gone"
        return self.composite.component("protocol").get_property("role", "?")

    def on_crash_cleanup(self) -> None:
        """Forget volatile handles after the node crashed."""
        self.composite = None
        self._pumps = []
