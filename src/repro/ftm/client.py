"""Fault-tolerant clients.

A client addresses the FTM's master replica, retransmits on timeout, and
fails over to the other replica — observing at-most-once semantics end to
end (a retransmitted request that was already processed is answered from
the reply log, never recomputed).
"""

from __future__ import annotations

import itertools
from typing import Any, List

from repro.ftm.errors import FTMError
from repro.ftm.messages import ClientReply, ClientRequest, estimate_size
from repro.kernel.sim import TIMEOUT, Timeout


class Client:
    """A request/reply client with retransmission and replica failover.

    The client is the record of its requests: ``replies`` and
    ``latencies_ms`` (from a request's start to its reply) hold one entry
    per answered request, in answer order, and ``sent``, ``ok``,
    ``errors``, ``replayed`` and ``all_ok`` are read off them.  A request
    that raised was never answered and is not counted.
    """

    def __init__(
        self,
        world,
        node,
        name: str,
        targets: List[str],
        timeout: float = 400.0,
        max_attempts: int = 8,
    ):
        if not targets:
            raise ValueError("client needs at least one target replica")
        self.world = world
        self.node = node
        self.name = name
        self.targets = list(targets)
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._ids = itertools.count(1)
        self._preferred = 0
        self.replies: List[ClientReply] = []
        self.latencies_ms: List[float] = []
        self.retransmissions = 0

    @property
    def sent(self) -> int:
        return len(self.replies)

    @property
    def ok(self) -> int:
        return sum(1 for reply in self.replies if reply.ok)

    @property
    def errors(self) -> int:
        return self.sent - self.ok

    @property
    def replayed(self) -> int:
        return sum(1 for reply in self.replies if reply.replayed)

    @property
    def all_ok(self) -> bool:
        return self.sent > 0 and self.ok == self.sent

    def request(self, payload: Any) -> Any:
        """Issue one request (generator; ``yield from`` inside a process).

        Returns the :class:`ClientReply` and records it with its latency;
        raises :class:`FTMError` after ``max_attempts`` unanswered
        transmissions.
        """
        started = self.world.now
        request_id = next(self._ids)
        port = f"reply-{self.name}-{request_id}"
        mailbox = self.world.network.bind(self.node.name, port)

        try:
            for attempt in range(self.max_attempts):
                target = self.targets[self._preferred]
                message = ClientRequest(
                    request_id=request_id,
                    client=self.name,
                    payload=payload,
                    reply_to=self.node.name,
                    reply_port=port,
                )
                if attempt > 0:
                    self.retransmissions += 1
                self.world.network.send(
                    self.node.name,
                    target,
                    "requests",
                    message,
                    size=estimate_size(payload),
                )
                incoming = yield mailbox.get(timeout=self.timeout)
                if incoming is TIMEOUT:
                    self._failover()
                    continue
                reply: ClientReply = incoming.payload
                if reply.error == "not-master":
                    # the replica we addressed is (still) a slave: back off a
                    # little and try the other one
                    self._failover()
                    yield Timeout(self.timeout / 8)
                    continue
                self.replies.append(reply)
                self.latencies_ms.append(self.world.now - started)
                return reply
            raise FTMError(
                f"client {self.name}: no reply to request {request_id} after "
                f"{self.max_attempts} attempts"
            )
        finally:
            self.world.network.unbind(self.node.name, port)

    def _failover(self) -> None:
        if len(self.targets) > 1:
            self._preferred = (self._preferred + 1) % len(self.targets)
