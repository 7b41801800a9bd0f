"""The ``protocol`` component of Figure 6: the FTM's stable core.

A *common part*: it holds the FTM's actual state (role, master-alone
flag) and orchestrates the generic Before–Proceed–After execution scheme
through its references to the three variable-feature components.
Transitions rewire it but never replace it, so roles, the reply log and
client sessions all survive FTM changes.
"""

from __future__ import annotations

from typing import Any

from repro.components.impl import ComponentImpl
from repro.components.model import Multiplicity
from repro.ftm.errors import UnmaskedFault
from repro.ftm.messages import ClientReply, ClientRequest, PeerEnvelope, estimate_size
from repro.kernel.network import Message


class FTProtocol(ComponentImpl):
    """Client communication, at-most-once, and scheme orchestration."""

    SERVICES = {
        "request": ("handle",),
        "peer": ("deliver",),
        "control": (
            "describe",
            "peer_failed",
            "peer_recovered",
            "set_role",
            "get_state",
            "put_state",
        ),
    }
    REFERENCES = {
        "before": Multiplicity.ONE,
        "exec": Multiplicity.ONE,
        "after": Multiplicity.ONE,
        "log": Multiplicity.ONE,
        "server": Multiplicity.ONE,
    }

    def on_attach(self) -> None:
        self.master_alone = False

    # -- info passed to the variable features -----------------------------------

    def _info(self) -> dict:
        return {
            "role": self.prop("role", "master"),
            "peer": self.prop("peer", ""),
            "master_alone": self.master_alone,
            "node": self.ctx.node.name,
        }

    # -- client side --------------------------------------------------------------

    def handle(self, message) -> Any:
        """Process one client request message (from the request pump)."""
        request: ClientRequest = (
            message.payload if isinstance(message, Message) else message
        )
        info = self._info()

        if info["role"] != "master":
            self._reply(
                request,
                ClientReply(
                    request_id=request.request_id,
                    value=None,
                    served_by=info["node"],
                    error="not-master",
                ),
            )
            return None

        log = self.ref("log")
        cached = yield from log.invoke("lookup", request.client, request.request_id)
        if cached is not None:
            self._reply(
                request,
                ClientReply(
                    request_id=request.request_id,
                    value=cached.value,
                    served_by=info["node"],
                    replayed=True,
                ),
            )
            return None

        try:
            yield from self.ref("before").invoke("before", request, info)
            result = yield from self.ref("exec").invoke("execute", request, info)
            result = yield from self.ref("after").invoke(
                "after", request, result, info
            )
        except UnmaskedFault as fault:
            self.ctx.trace.record(
                "ftm",
                "unmasked_fault",
                node=info["node"],
                request_id=request.request_id,
            )
            self._reply(
                request,
                ClientReply(
                    request_id=request.request_id,
                    value=None,
                    served_by=info["node"],
                    error=str(fault),
                ),
            )
            return None

        reply = ClientReply(
            request_id=request.request_id, value=result, served_by=info["node"]
        )
        yield from log.invoke("record", request.client, request.request_id, reply)
        self._reply(request, reply)
        # end-to-end serving latency (transit + queueing + redundant
        # execution): the Monitoring Engine's limping probe feeds on it
        sent_at = getattr(message, "sent_at", None)
        latency_ms = (
            round(self.ctx.sim.now - sent_at, 6) if sent_at is not None else None
        )
        self.ctx.trace.record(
            "ftm", "request_served", node=info["node"],
            request_id=request.request_id, latency_ms=latency_ms,
        )
        return None

    def _reply(self, request: ClientRequest, reply: ClientReply) -> None:
        if not request.reply_to:
            return  # peer-originated execution, no client to answer
        self.ctx.send(
            request.reply_to,
            request.reply_port,
            reply,
            size=estimate_size(reply.value),
        )

    # -- peer side -----------------------------------------------------------------------

    def deliver(self, message) -> Any:
        """Route one inter-replica message (from the peer pump)."""
        envelope: PeerEnvelope = (
            message.payload if isinstance(message, Message) else message
        )
        info = self._info()
        if envelope.kind == "request":
            yield from self.ref("before").invoke("on_peer", envelope, info)
        else:
            yield from self.ref("after").invoke("on_peer", envelope, info)
        return None

    # -- control (failure detection, recovery, management) ----------------------------------

    def describe(self) -> dict:
        """The replica's current role/peer view (for FD and management)."""
        return self._info()

    def peer_failed(self) -> Any:
        """FD callback: the other replica is gone."""
        info = self._info()
        if info["role"] == "slave":
            self.component.set_property("role", "master")
            committed = yield from self.ref("log").invoke(
                "commit_all_stashed", info["node"]
            )
            self.ctx.trace.record(
                "ftm",
                "promoted",
                node=info["node"],
                committed_stashed=committed,
            )
        else:
            self.ctx.trace.record("ftm", "master_alone", node=info["node"])
        self.master_alone = True
        return None

    def peer_recovered(self, peer_node: str) -> None:
        """Leave master-alone mode: a fresh peer was reintegrated."""
        self.component.set_property("peer", peer_node)
        self.master_alone = False
        self.ctx.trace.record(
            "ftm", "peer_recovered", node=self.ctx.node.name, peer=peer_node
        )

    def set_role(self, role: str) -> None:
        """Management override of the replica role."""
        self.component.set_property("role", role)

    def get_state(self) -> Any:
        """State transfer (replica reintegration): capture the app state."""
        state = yield from self.ref("server").invoke("capture")
        return state

    def put_state(self, state: Any) -> Any:
        """State transfer (replica reintegration): restore the app state."""
        yield from self.ref("server").invoke("restore", state)
        return None
