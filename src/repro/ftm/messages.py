"""Wire-level message types of the component-based FTMs.

Named tuples rather than frozen dataclasses, for the reason
:class:`~repro.kernel.trace.TraceRecord` is one: a request builds
several of them, and tuple construction is several times cheaper than
``object.__setattr__``-guarded init.  Keyword construction, defaults,
the ``repr`` format and immutability are unchanged.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


class ClientRequest(NamedTuple):
    """A request as it travels from a client to the master replica."""

    request_id: int
    client: str
    payload: Any
    reply_to: str    #: node to send the reply to
    reply_port: str  #: mailbox port on that node


class ClientReply(NamedTuple):
    """The reply sent back to the client's mailbox."""

    request_id: int
    value: Any
    served_by: str
    replayed: bool = False
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class PeerEnvelope(NamedTuple):
    """Inter-replica protocol message.

    Kinds used by the illustrative set: ``checkpoint`` (PBR), ``request``
    and ``notify`` (LFR), ``assist`` / ``assist_reply`` (A&Duplex),
    ``state_transfer`` (replica reintegration).
    """

    kind: str
    request_id: int
    client: str = ""
    body: Any = None
    reply_to: str = ""
    reply_port: str = ""


def estimate_size(value: Any, floor: int = 96, scale: int = 1) -> int:
    """Approximate the wire size of a payload in bytes.

    Good enough for the bandwidth model: proportional to the textual
    representation, with a protocol-header floor.  ``scale`` models
    serialization overhead: checkpoints ship whole object graphs
    (``CHECKPOINT_SCALE``), so PBR's traffic dominates LFR's small
    forwards/notifies — the R-contrast of Table 1.
    """
    return floor + scale * len(repr(value))


#: Serialization weight of full-state checkpoints vs plain payloads.
CHECKPOINT_SCALE = 32
