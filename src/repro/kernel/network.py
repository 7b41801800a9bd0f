"""Simulated network: links, mailboxes, partitions, loss and corruption.

The network connects :class:`repro.kernel.node.Node` instances with
point-to-point links characterised by latency and bandwidth.  Processes
receive messages through *mailboxes* — named :class:`Channel` endpoints
bound to ``(node, port)`` addresses.

The model is deliberately simple but charges the costs the paper's
evaluation depends on: a message of ``size`` bytes takes
``latency + size / bandwidth`` (plus jitter) to arrive, sender energy is
charged per byte, and per-node byte counters feed the Monitoring Engine's
bandwidth probe.  Links can be re-characterised at runtime — that is how
the ``bandwidth drop`` adaptation trigger of Figure 8 is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.kernel.costs import CostModel, DEFAULT_COSTS
from repro.kernel.errors import NetworkUnreachable, NodeDown
from repro.kernel.node import Node
from repro.kernel.sim import Channel, Simulator
from repro.kernel.trace import Trace

class Message:
    """An envelope delivered to a mailbox.

    A plain slotted class rather than a dataclass: one is allocated per
    send, which makes construction cost part of the kernel's hot path.
    Treat instances as immutable.
    """

    __slots__ = ("source", "destination", "port", "payload", "size", "sent_at")

    def __init__(
        self,
        source: str,
        destination: str,
        port: str,
        payload: Any,
        size: int,
        sent_at: float,
    ):
        self.source = source
        self.destination = destination
        self.port = port
        self.payload = payload
        self.size = size
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Message {self.source}->{self.destination}:{self.port} "
            f"size={self.size}>"
        )


@dataclass
class Link:
    """Directed link characteristics (shared for both directions by default)."""

    latency: float
    bandwidth: float  # bytes per millisecond
    loss: float = 0.0  # per-message omission probability on this link

    def transfer_time(self, size: int) -> float:
        """Latency plus serialisation delay for ``size`` bytes."""
        return self.latency + size / self.bandwidth


class Network:
    """The message-passing fabric between nodes."""

    def __init__(
        self,
        sim: Simulator,
        trace: Trace,
        costs: CostModel = DEFAULT_COSTS,
    ):
        self.sim = sim
        self.trace = trace
        self.costs = costs
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._mailboxes: Dict[Tuple[str, str], Channel] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._loss_probability = 0.0
        self._rand = sim.random.substream("network")
        # bound once: one delivery callback is scheduled per message, so a
        # fresh bound method per send() would dominate its allocations
        self._deliver_cb = self._deliver
        self._rng_random = self._rand._rng.random  # jitter draw, sans frames
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- topology ---------------------------------------------------------------

    def join(self, node: Node) -> None:
        """Attach a node; links to existing nodes default to the cost model."""
        if node.name in self._nodes:
            raise ValueError(f"node {node.name!r} already joined")
        for other in self._nodes:
            self._links[(node.name, other)] = self._default_link()
            self._links[(other, node.name)] = self._default_link()
        self._nodes[node.name] = node

    def _default_link(self) -> Link:
        return Link(latency=self.costs.link_latency, bandwidth=self.costs.link_bandwidth)

    def link(self, source: str, destination: str) -> Link:
        """The directed link between two nodes."""
        try:
            return self._links[(source, destination)]
        except KeyError:
            raise NetworkUnreachable(source, destination) from None

    def links_touching(self, name: str) -> List[Link]:
        """Every directed link into or out of one node (a limping NIC
        degrades both directions), in deterministic insertion order."""
        return [
            link for (source, destination), link in self._links.items()
            if name in (source, destination)
        ]

    def set_link(
        self,
        source: str,
        destination: str,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
        symmetric: bool = True,
    ) -> None:
        """Re-characterise a link at runtime (e.g. to simulate bandwidth drop)."""
        pairs = [(source, destination)]
        if symmetric:
            pairs.append((destination, source))
        for pair in pairs:
            link = self.link(*pair)
            if latency is not None:
                link.latency = latency
            if bandwidth is not None:
                link.bandwidth = bandwidth
        self.trace.record(
            "network",
            "link_change",
            source=source,
            destination=destination,
            latency=latency,
            bandwidth=bandwidth,
        )

    # -- partitions & loss ---------------------------------------------------------

    def partition(self, group_a: List[str], group_b: List[str]) -> None:
        """Block all traffic between the two node groups."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))
        self.trace.record("network", "partition", group_a=tuple(group_a), group_b=tuple(group_b))

    def heal(self) -> None:
        """Remove every partition."""
        self._partitions.clear()
        self.trace.record("network", "heal")

    def partitioned(self, a: str, b: str) -> bool:
        """Is traffic between the two nodes currently blocked?"""
        return frozenset((a, b)) in self._partitions

    def set_loss_probability(self, probability: float) -> None:
        """Drop each message independently with this probability."""
        self._loss_probability = probability

    @property
    def loss_probability(self) -> float:
        """The current network-wide omission probability."""
        return self._loss_probability

    def set_link_loss(
        self, source: str, destination: str, probability: float,
        symmetric: bool = True,
    ) -> None:
        """Inject omission faults on one link only (e.g. the repository link)."""
        pairs = [(source, destination)]
        if symmetric:
            pairs.append((destination, source))
        for pair in pairs:
            self.link(*pair).loss = probability
        self.trace.record(
            "network",
            "link_loss",
            source=source,
            destination=destination,
            probability=probability,
        )

    # -- mailboxes --------------------------------------------------------------

    def bind(self, node: str, port: str) -> Channel:
        """Create (or fetch) the mailbox for ``(node, port)``."""
        if node not in self._nodes:
            raise KeyError(f"unknown node {node!r}")
        key = (node, port)
        mailbox = self._mailboxes.get(key)
        if mailbox is None:
            mailbox = Channel(self.sim, name=f"{node}:{port}")
            self._mailboxes[key] = mailbox
        return mailbox

    def unbind(self, node: str, port: str) -> None:
        """Remove a mailbox; subsequent deliveries to it are dropped."""
        self._mailboxes.pop((node, port), None)

    def flush_node(self, node: str) -> None:
        """Drop all buffered messages for a node (used on crash)."""
        for (owner, _port), mailbox in self._mailboxes.items():
            if owner == node:
                mailbox.drain()

    # -- sending --------------------------------------------------------------------

    def send(
        self,
        source: str,
        destination: str,
        port: str,
        payload: Any,
        size: int = 256,
    ) -> None:
        """Fire-and-forget message send (datagram semantics).

        Raises :class:`NodeDown` if the *source* is crashed.  Messages to a
        crashed or partitioned destination are silently dropped, like a
        real datagram — failure detection is the protocols' job.
        """
        nodes = self._nodes
        src_node = nodes.get(source)
        if src_node is None:
            raise KeyError(f"unknown node {source!r}")
        if destination not in nodes:
            raise KeyError(f"unknown node {destination!r}")
        if not src_node.is_up:
            raise NodeDown(source, "send")

        sim = self.sim
        message = Message(source, destination, port, payload, size, sim.now)
        self.messages_sent += 1
        src_node.charge_energy_for_send(size)

        if source == destination:
            delay = 0.01  # loopback
        else:
            if self._partitions and self.partitioned(source, destination):
                self._drop(message, "partition")
                return
            link = self._links.get((source, destination))
            if link is None:
                raise NetworkUnreachable(source, destination)
            loss = self._loss_probability
            if link.loss > loss:
                loss = link.loss
            if loss > 0.0 and self._rand.chance(loss):
                self._drop(message, "loss")
                return
            # inlined self._rand.jitter(base, fraction): same float
            # arithmetic, same RNG stream, two call frames fewer on the
            # per-message path
            delay = link.latency + size / link.bandwidth
            fraction = self.costs.jitter_fraction
            if fraction > 0.0:
                low = 1.0 - fraction
                high = 1.0 + fraction
                delay = delay * (low + (high - low) * self._rng_random())
        sim._ev_request += 1
        sim._push(delay, self._deliver_cb, (message,))

    def _drop(self, message: Message, reason: str) -> None:
        self.messages_dropped += 1
        self.trace.record(
            "network",
            "drop",
            source=message.source,
            destination=message.destination,
            port=message.port,
            reason=reason,
        )

    def _deliver(self, message: Message) -> None:
        dest_name = message.destination
        destination = self._nodes[dest_name]
        if not destination.is_up:
            self._drop(message, "destination_down")
            return
        if self._partitions and self.partitioned(message.source, dest_name):
            self._drop(message, "partition")
            return
        mailbox = self._mailboxes.get((dest_name, message.port))
        if mailbox is None:
            self._drop(message, "no_mailbox")
            return
        destination.bytes_received += message.size
        self.messages_delivered += 1
        mailbox.put(message)
