"""Stable storage.

Section 5.3 of the paper relies on a stable store: *"the current
configuration (i.e., the target FTM) is logged on a stable storage"* so a
replica that crashes mid-transition can be restarted in the configuration
its peer reached.  :class:`StableStorage` models exactly that: a per-node
key-value store whose contents survive node crashes (it lives outside the
node's volatile state), plus an append-only configuration log with a
convenience accessor for the latest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.kernel.errors import StorageError
from repro.kernel.trace import Trace


@dataclass(frozen=True)
class LogEntry:
    """One append-only log record."""

    sequence: int
    time: float
    value: Any


class StableStorage:
    """Crash-surviving storage shared by a cluster.

    Keys are namespaced by node name so replicas never trample each other,
    but reads may cross namespaces — recovery explicitly reads the *peer's*
    logged configuration.
    """

    def __init__(self, trace: Trace, clock=None):
        self.trace = trace
        self._clock = clock or (lambda: 0.0)
        self._data: Dict[Tuple[str, str], Any] = {}
        self._logs: Dict[str, List[LogEntry]] = {}
        self.write_count = 0
        self.read_count = 0

    # -- key-value -----------------------------------------------------------

    def write(self, node: str, key: str, value: Any) -> None:
        """Durably store ``value`` under ``(node, key)``."""
        self._data[(node, key)] = value
        self.write_count += 1
        self.trace.record("storage", "write", node=node, key=key)

    def read(self, node: str, key: str, default: Any = None) -> Any:
        """Read a stored value (``default`` when absent)."""
        self.read_count += 1
        return self._data.get((node, key), default)

    def exists(self, node: str, key: str) -> bool:
        """Is there a value under ``(node, key)``?"""
        return (node, key) in self._data

    def delete(self, node: str, key: str) -> None:
        """Remove a stored value (raises on unknown keys)."""
        if (node, key) not in self._data:
            raise StorageError(f"no key {key!r} for node {node!r}")
        del self._data[(node, key)]
        self.trace.record("storage", "delete", node=node, key=key)

    # -- append-only logs -------------------------------------------------------

    def append(self, log_name: str, value: Any) -> LogEntry:
        """Append to a named durable log; returns the new entry."""
        log = self._logs.setdefault(log_name, [])
        entry = LogEntry(sequence=len(log), time=self._clock(), value=value)
        log.append(entry)
        self.write_count += 1
        self.trace.record("storage", "append", log=log_name, sequence=entry.sequence)
        return entry

    def log(self, log_name: str) -> List[LogEntry]:
        """The whole content of a named log (oldest first)."""
        self.read_count += 1
        return list(self._logs.get(log_name, []))

    def last(self, log_name: str) -> Optional[LogEntry]:
        """The newest entry of a named log (None when empty)."""
        self.read_count += 1
        log = self._logs.get(log_name)
        return log[-1] if log else None
