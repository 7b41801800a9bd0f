"""Stable storage.

Section 5.3 of the paper relies on a stable store: *"the current
configuration (i.e., the target FTM) is logged on a stable storage"* so a
replica that crashes mid-transition can be restarted in the configuration
its peer reached.  :class:`StableStorage` models exactly that: append-only
logs whose contents survive node crashes (they live outside the nodes'
volatile state), with a convenience accessor for the latest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.kernel.trace import Trace


@dataclass(frozen=True)
class LogEntry:
    """One append-only log record."""

    sequence: int
    time: float
    value: Any


class StableStorage:
    """Crash-surviving storage shared by a cluster.

    Logs are named per replica, but any node may read any log — recovery
    explicitly reads the *peer's* logged configuration.
    """

    def __init__(self, trace: Trace, clock=None):
        self.trace = trace
        self._clock = clock or (lambda: 0.0)
        self._logs: Dict[str, List[LogEntry]] = {}

    # -- append-only logs -------------------------------------------------------

    def append(self, log_name: str, value: Any) -> LogEntry:
        """Append to a named durable log; returns the new entry."""
        log = self._logs.setdefault(log_name, [])
        entry = LogEntry(sequence=len(log), time=self._clock(), value=value)
        log.append(entry)
        self.trace.record("storage", "append", log=log_name, sequence=entry.sequence)
        return entry

    def log(self, log_name: str) -> List[LogEntry]:
        """The whole content of a named log (oldest first)."""
        return list(self._logs.get(log_name, []))

    def last(self, log_name: str) -> Optional[LogEntry]:
        """The newest entry of a named log (None when empty)."""
        log = self._logs.get(log_name)
        return log[-1] if log else None
