"""Application and assertion registries.

Component specs must be *comparable* (the differential diff hinges on
it), so components never hold factories directly: they hold registry
names as properties.  The registry maps those names to application
factories (business logic) and safety assertions (derived off-line from
safety analyses, per the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.patterns.server import Server


@dataclass(frozen=True)
class ApplicationInfo:
    """Catalog entry describing an application's A-characteristics."""

    name: str
    factory: Callable[[], Server]
    deterministic: bool
    state_accessible: bool
    processing_cost_ms: float


_APPLICATIONS: Dict[str, ApplicationInfo] = {}
_ASSERTIONS: Dict[str, Callable[[Any, Any], bool]] = {}


def register_application(
    name: str,
    factory: Callable[[], Server],
    deterministic: bool,
    state_accessible: bool,
    processing_cost_ms: float = 5.0,
) -> None:
    """Register a business-logic factory under a stable name."""
    if name in _APPLICATIONS:
        raise ValueError(f"application {name!r} already registered")
    _APPLICATIONS[name] = ApplicationInfo(
        name=name,
        factory=factory,
        deterministic=deterministic,
        state_accessible=state_accessible,
        processing_cost_ms=processing_cost_ms,
    )


def application_info(name: str) -> ApplicationInfo:
    """The catalog entry for a registered application."""
    try:
        return _APPLICATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown application {name!r} (registered: {sorted(_APPLICATIONS)})"
        ) from None


def register_assertion(name: str, assertion: Callable[[Any, Any], bool]) -> None:
    """Register a safety assertion (payload, result) -> bool."""
    if name in _ASSERTIONS:
        raise ValueError(f"assertion {name!r} already registered")
    _ASSERTIONS[name] = assertion


def get_assertion(name: str) -> Callable[[Any, Any], bool]:
    """Look a safety assertion up by registry name."""
    try:
        return _ASSERTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown assertion {name!r} (registered: {sorted(_ASSERTIONS)})"
        ) from None
