"""Reflective component model (the SCA/FraSCAti substitute).

Public surface::

    from repro.components import (
        ComponentImpl, ComponentRuntime, NodeContext, Multiplicity,
        AssemblySpec, ComponentSpec, WireSpec, PromotionSpec,
    )
"""

from repro.components.composite import Composite
from repro.components.errors import (
    ComponentError,
    LifecycleError,
    UnknownComponentError,
    UnknownReferenceError,
    UnknownServiceError,
    WiringError,
)
from repro.components.impl import ComponentImpl, NodeContext
from repro.components.introspect import (
    components_in_state,
    dependencies_of,
    dependents_of,
    describe,
    find_by_implementation,
    invocation_counts,
    orphans,
    reachable_from,
)
from repro.components.model import (
    Component,
    LifecycleState,
    Multiplicity,
    Reference,
    Service,
    Wire,
    connect,
    disconnect,
)
from repro.components.runtime import ComponentRuntime, make_runtime
from repro.components.spec import (
    AssemblyDiff,
    AssemblySpec,
    ComponentSpec,
    PromotionSpec,
    WireSpec,
)

__all__ = [
    "Composite",
    "ComponentError",
    "LifecycleError",
    "UnknownComponentError",
    "UnknownReferenceError",
    "UnknownServiceError",
    "WiringError",
    "ComponentImpl",
    "NodeContext",
    "components_in_state",
    "dependencies_of",
    "dependents_of",
    "describe",
    "find_by_implementation",
    "invocation_counts",
    "orphans",
    "reachable_from",
    "Component",
    "LifecycleState",
    "Multiplicity",
    "Reference",
    "Service",
    "Wire",
    "connect",
    "disconnect",
    "ComponentRuntime",
    "make_runtime",
    "AssemblyDiff",
    "AssemblySpec",
    "ComponentSpec",
    "PromotionSpec",
    "WireSpec",
]
