"""Exception hierarchy for the component model."""

from __future__ import annotations


class ComponentError(Exception):
    """Base class for all component-model errors."""


class LifecycleError(ComponentError):
    """An operation was attempted in an illegal lifecycle state."""


class WiringError(ComponentError):
    """A wire or promotion could not be created or removed."""


class UnknownComponentError(ComponentError):
    """Lookup of a component that is not in the composite."""

    def __init__(self, name: str, composite: str = "?"):
        super().__init__(f"no component {name!r} in composite {composite!r}")
        self.name = name


class UnknownServiceError(ComponentError):
    """Lookup of a service or operation that the component does not provide."""


class UnknownReferenceError(ComponentError):
    """Lookup of a reference the component does not declare."""
