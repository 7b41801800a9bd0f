"""Structured event tracing for simulations.

Every subsystem records what it does through a :class:`Trace`; the
evaluation harness and the integration tests read the trace back instead
of scraping stdout.  Records are plain tuples so traces are cheap and
comparable across runs (determinism checks diff two traces).
"""

from __future__ import annotations

from _blake2 import blake2b
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple,
)


class TraceRecord(NamedTuple):
    """One traced occurrence.

    A named tuple rather than a frozen dataclass: records are created on
    the hot path of every traced subsystem, and tuple construction is
    several times cheaper than ``object.__setattr__``-guarded init.
    Field equality and hashing are unchanged.
    """

    time: float
    category: str
    event: str
    details: Tuple[Tuple[str, Any], ...] = ()

    def detail(self, key: str, default: Any = None) -> Any:
        """One detail value by key."""
        for name, value in self.details:
            if name == key:
                return value
        return default

    def __str__(self) -> str:  # pragma: no cover - debug aid
        kv = " ".join(f"{k}={v!r}" for k, v in self.details)
        return f"[{self.time:10.3f}] {self.category}.{self.event} {kv}"


class Boundary:
    """One announcement on the transition path (:meth:`Trace.announce`).

    ``point`` is ``enter`` or ``leave`` for a phase boundary, otherwise
    the crossing where an artefact can break: ``chunk``, ``payload``,
    ``script``, ``statement``, ``residue``.  A listener may replace
    ``payload`` or set ``failed`` to a reason; what a failed artefact
    does is the announcer's business.
    """

    __slots__ = ("time", "phase", "point", "node", "remote", "payload",
                 "rand", "index", "failed")

    def __init__(self, time, phase, point, node, remote, payload, rand,
                 index, failed):
        self.time = time
        self.phase = phase
        self.point = point
        self.node = node        #: the transitioning :class:`Node`
        self.remote = remote    #: enter: the package's far end, if networked
        self.payload = payload  #: chunk: the bytes that arrived
        self.rand = rand        #: chunk: the fetcher's random substream
        self.index = index      #: statement: its position in the script
        self.failed = failed    #: why it broke (leave: why the phase ended)


@dataclass
class Trace:
    """An append-only log of :class:`TraceRecord` with simple querying."""

    clock: Callable[[], float]
    records: List[TraceRecord] = field(default_factory=list)
    _subscribers: List[Callable[[TraceRecord], None]] = field(default_factory=list)
    _listeners: List[Callable[[Boundary], None]] = field(default_factory=list)

    def record(self, category: str, event: str, **details: Any) -> None:
        """Append one record at the current simulation time."""
        # positional tuple.__new__ skips the NamedTuple keyword wrapper
        items = details.items()
        rec = tuple.__new__(TraceRecord, (
            self.clock(), category, event,
            tuple(sorted(items)) if len(details) > 1 else tuple(items),
        ))
        self.records.append(rec)
        for subscriber in self._subscribers:
            subscriber(rec)

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live observer (used by the Monitoring Engine)."""
        self._subscribers.append(callback)

    def listen(self, callback: Callable[[Boundary], None]) -> None:
        """Register a listener on the transition path's boundary stream."""
        self._listeners.append(callback)

    def announce(self, phase: str, point: str, node, remote=None, payload=None,
                 rand=None, index=None, failed=None) -> Boundary:
        """Tell every listener, synchronously and in registration order,
        that ``node``'s transition is at ``point`` of ``phase``; returns
        the :class:`Boundary` they saw.  Delivered, never recorded (so
        outside :meth:`digest`); the one clock read behind phase timings.
        """
        boundary = Boundary(self.clock(), phase, point, node, remote, payload,
                            rand, index, failed)
        for listener in self._listeners:
            listener(boundary)
        return boundary

    # -- queries -----------------------------------------------------------

    def select(
        self,
        category: Optional[str] = None,
        event: Optional[str] = None,
        since: float = 0.0,
        **details: Any,
    ) -> List[TraceRecord]:
        """All records matching the filters, as a list."""
        return [r for r in self.iter(category, event, since, **details)]

    def iter(
        self,
        category: Optional[str] = None,
        event: Optional[str] = None,
        since: float = 0.0,
        **details: Any,
    ) -> Iterator[TraceRecord]:
        """Lazily iterate records matching the filters."""
        for rec in self.records:
            if rec.time < since:
                continue
            if category is not None and rec.category != category:
                continue
            if event is not None and rec.event != event:
                continue
            if any(rec.detail(k) != v for k, v in details.items()):
                continue
            yield rec

    def count(self, category: Optional[str] = None, event: Optional[str] = None) -> int:
        """How many records match."""
        return sum(1 for _ in self.iter(category, event))

    def last(
        self, category: Optional[str] = None, event: Optional[str] = None
    ) -> Optional[TraceRecord]:
        """The newest matching record (None when nothing matches)."""
        found = self.select(category, event)
        return found[-1] if found else None

    def summary(self) -> Dict[str, int]:
        """Histogram of ``category.event`` → count."""
        out: Dict[str, int] = {}
        for rec in self.records:
            key = f"{rec.category}.{rec.event}"
            out[key] = out.get(key, 0) + 1
        return out

    def digest(self) -> str:
        """A stable hex digest over every record.

        Byte-identity checks (fast vs legacy kernel, express vs plain
        heartbeats) compare digests instead of whole record lists; any
        divergence in event order, timing or payload changes it.
        """
        h = blake2b(digest_size=16)
        for rec in self.records:
            h.update(
                repr((rec.time, rec.category, rec.event, rec.details)).encode()
            )
        return h.hexdigest()
