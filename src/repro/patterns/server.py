"""The application-side interfaces of Figure 3.

The paper's class diagram places, under the fault-tolerance hierarchy, a
small application hierarchy: ``StateManager`` (checkpointable state),
``Server``/``Remote``/``RemoteServer`` (invokable business logic) and
``RecoverableRemoteServer`` (both).  The FTMs interact with applications
only through these interfaces, which is what keeps fault tolerance
separated from business logic (the paper's separation-of-concerns
requirement).

Application *characteristics* — the A of (FT, A, R) — are class-level
flags: ``DETERMINISTIC`` and ``STATE_ACCESSIBLE``.  The selection logic
in :mod:`repro.core.consistency` reads them to accept or reject FTMs.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Optional


class StateManager(abc.ABC):
    """Interface: checkpointable application state."""

    @abc.abstractmethod
    def capture_state(self) -> Any:
        """Return a self-contained snapshot of the application state."""

    @abc.abstractmethod
    def restore_state(self, snapshot: Any) -> None:
        """Reset the application state from a snapshot."""


class Remote(abc.ABC):
    """Marker interface: the object is remotely invokable."""


class Server(abc.ABC):
    """Interface: business logic processing one request at a time."""

    #: Behavioural determinism: same inputs produce same outputs (no faults).
    DETERMINISTIC: bool = True
    #: Whether the application exposes its state for checkpointing.
    STATE_ACCESSIBLE: bool = False
    #: Nominal CPU time of one request, in milliseconds of virtual time.
    PROCESSING_COST_MS: float = 5.0

    @abc.abstractmethod
    def process(self, payload: Any) -> Any:
        """Compute the reply value for one request payload."""


class RemoteServer(Server, Remote):
    """A server reachable from clients (Figure 3's ``RemoteServer``)."""


class RecoverableRemoteServer(RemoteServer, StateManager):
    """A remote server whose state can be captured and restored."""

    STATE_ACCESSIBLE = True


# ---------------------------------------------------------------------------
# Concrete servers used by tests, examples and the eval modules
# ---------------------------------------------------------------------------


class CounterServer(RecoverableRemoteServer):
    """Deterministic, stateful, state-accessible: the PBR-friendly default.

    ``process`` interprets payloads of the form ``("add", n)`` /
    ``("get",)`` and returns the counter value — simple enough to verify,
    stateful enough to make checkpointing meaningful.
    """

    DETERMINISTIC = True

    def __init__(self) -> None:
        self.total = 0
        self.processed = 0

    def process(self, payload: Any) -> Any:
        self.processed += 1
        if isinstance(payload, tuple) and payload and payload[0] == "add":
            self.total += payload[1]
            return self.total
        if isinstance(payload, tuple) and payload and payload[0] == "get":
            return self.total
        raise ValueError(f"unknown payload {payload!r}")

    def capture_state(self) -> Any:
        return {"total": self.total, "processed": self.processed}

    def restore_state(self, snapshot: Any) -> None:
        self.total = snapshot["total"]
        self.processed = snapshot["processed"]


class KeyValueServer(RecoverableRemoteServer):
    """A deterministic key-value store (used by examples)."""

    def __init__(self) -> None:
        self.data = {}

    def process(self, payload: Any) -> Any:
        op = payload[0]
        if op == "put":
            _op, key, value = payload
            self.data[key] = value
            return "ok"
        if op == "get":
            return self.data.get(payload[1])
        if op == "delete":
            return self.data.pop(payload[1], None)
        raise ValueError(f"unknown payload {payload!r}")

    def capture_state(self) -> Any:
        return copy.deepcopy(self.data)

    def restore_state(self, snapshot: Any) -> None:
        self.data = copy.deepcopy(snapshot)


class NonDeterministicServer(RemoteServer):
    """Deterministic? No — replies depend on an internal draw.

    Models the 'new application version became non-deterministic'
    trigger of Figure 8.  Not state-accessible either, so only PBR-like
    strategies can protect it... except PBR needs state access too: this
    is the "no generic solution" corner of the scenario graph.
    """

    DETERMINISTIC = False
    STATE_ACCESSIBLE = False

    def __init__(self, seed: int = 0) -> None:
        self._state = seed

    def process(self, payload: Any) -> Any:
        # linear congruential draw: deterministic per instance, but two
        # replicas diverge immediately — behavioural non-determinism
        self._state = (self._state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._state


class FlakyServer(RecoverableRemoteServer):
    """A wrapper that corrupts results on demand (fault injection hook).

    ``fail_next(n)`` corrupts the next *n* computations; used by unit
    tests to exercise TR / Assertion masking without the full kernel.
    """

    def __init__(self, inner: Optional[RecoverableRemoteServer] = None) -> None:
        self.inner = inner or CounterServer()
        self._failures_left = 0
        self.faults_injected = 0

    def fail_next(self, count: int = 1) -> None:
        """Corrupt the next ``count`` computations."""
        self._failures_left = count

    def process(self, payload: Any) -> Any:
        result = self.inner.process(payload)
        if self._failures_left > 0:
            self._failures_left -= 1
            self.faults_injected += 1
            if isinstance(result, int):
                return result ^ 0x40
            return ("corrupted", result)
        return result

    def capture_state(self) -> Any:
        return self.inner.capture_state()

    def restore_state(self, snapshot: Any) -> None:
        self.inner.restore_state(snapshot)
