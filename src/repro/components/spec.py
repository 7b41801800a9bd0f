"""Assembly blueprints and structural diffing.

An :class:`AssemblySpec` is the *off-line* description of a composite:
which components (implementation class + properties), which wires, which
promotions.  The FTM catalog (:mod:`repro.ftm.catalog`) is a set of
specs; the Adaptation Engine's *differential transition* is computed by
:meth:`AssemblySpec.diff`, which identifies exactly the variable features
that must be replaced — the heart of the paper's fine-grained approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple, Type


@dataclass(frozen=True)
class ComponentSpec:
    """Blueprint of one component."""

    name: str
    impl_class: Type
    properties: Tuple[Tuple[str, Any], ...] = ()
    size: int = 4096  #: packaged size in bytes (drives package-transfer cost)

    @staticmethod
    def make(
        name: str,
        impl_class: Type,
        properties: Optional[Mapping[str, Any]] = None,
        size: int = 4096,
    ) -> "ComponentSpec":
        props = tuple(sorted((properties or {}).items()))
        return ComponentSpec(name=name, impl_class=impl_class, properties=props, size=size)

    def properties_dict(self) -> Dict[str, Any]:
        """The properties as a plain dict."""
        return dict(self.properties)

    def same_configuration(self, other: "ComponentSpec") -> bool:
        """True when name, implementation and properties all match."""
        return (
            self.name == other.name
            and self.impl_class is other.impl_class
            and self.properties == other.properties
        )


@dataclass(frozen=True)
class WireSpec:
    source: str
    reference: str
    target: str
    service: str


@dataclass(frozen=True)
class PromotionSpec:
    external: str
    component: str
    service: str


@dataclass(frozen=True)
class AssemblySpec:
    """Blueprint of a whole composite (one FTM replica side)."""

    name: str
    components: Tuple[ComponentSpec, ...]
    wires: Tuple[WireSpec, ...]
    promotions: Tuple[PromotionSpec, ...] = ()

    def component(self, name: str) -> ComponentSpec:
        """Look a component blueprint up by name."""
        for spec in self.components:
            if spec.name == name:
                return spec
        raise KeyError(f"assembly {self.name!r} has no component {name!r}")

    def component_names(self) -> FrozenSet[str]:
        """The set of component names in this blueprint."""
        return frozenset(spec.name for spec in self.components)

    def validate(self) -> List[str]:
        """Static well-formedness check of the blueprint itself."""
        problems: List[str] = []
        names = [spec.name for spec in self.components]
        if len(names) != len(set(names)):
            problems.append(f"duplicate component names in {self.name!r}")
        known = set(names)
        for wire in self.wires:
            if wire.source not in known:
                problems.append(f"wire source {wire.source!r} unknown")
            if wire.target not in known:
                problems.append(f"wire target {wire.target!r} unknown")
        for promotion in self.promotions:
            if promotion.component not in known:
                problems.append(
                    f"promotion {promotion.external!r} targets unknown "
                    f"component {promotion.component!r}"
                )
        return problems

    # -- differential comparison ----------------------------------------------------

    def diff(self, target: "AssemblySpec") -> "AssemblyDiff":
        """Compute the differential reconfiguration from self to ``target``.

        Components present in both but with a different implementation or
        properties are *replaced* (the paper's "variable features");
        identical ones are left untouched (the "massive common parts").
        """
        mine = {spec.name: spec for spec in self.components}
        theirs = {spec.name: spec for spec in target.components}

        added = tuple(
            spec for name, spec in sorted(theirs.items()) if name not in mine
        )
        removed = tuple(
            spec for name, spec in sorted(mine.items()) if name not in theirs
        )
        replaced = tuple(
            (mine[name], theirs[name])
            for name in sorted(set(mine) & set(theirs))
            if not mine[name].same_configuration(theirs[name])
        )
        unchanged = tuple(
            mine[name]
            for name in sorted(set(mine) & set(theirs))
            if mine[name].same_configuration(theirs[name])
        )

        my_wires = set(self.wires)
        their_wires = set(target.wires)
        wires_removed = tuple(sorted(my_wires - their_wires, key=_wire_key))
        wires_added = tuple(sorted(their_wires - my_wires, key=_wire_key))

        my_promotions = set(self.promotions)
        their_promotions = set(target.promotions)
        promotions_removed = tuple(
            sorted(my_promotions - their_promotions, key=lambda p: p.external)
        )
        promotions_added = tuple(
            sorted(their_promotions - my_promotions, key=lambda p: p.external)
        )

        return AssemblyDiff(
            source=self,
            target=target,
            added=added,
            removed=removed,
            replaced=replaced,
            unchanged=unchanged,
            wires_added=wires_added,
            wires_removed=wires_removed,
            promotions_added=promotions_added,
            promotions_removed=promotions_removed,
        )


def _wire_key(wire: WireSpec) -> Tuple[str, str, str, str]:
    return (wire.source, wire.reference, wire.target, wire.service)


@dataclass(frozen=True)
class AssemblyDiff:
    """The differential between two assembly blueprints."""

    source: AssemblySpec
    target: AssemblySpec
    added: Tuple[ComponentSpec, ...]
    removed: Tuple[ComponentSpec, ...]
    replaced: Tuple[Tuple[ComponentSpec, ComponentSpec], ...]
    unchanged: Tuple[ComponentSpec, ...]
    wires_added: Tuple[WireSpec, ...]
    wires_removed: Tuple[WireSpec, ...]
    promotions_added: Tuple[PromotionSpec, ...]
    promotions_removed: Tuple[PromotionSpec, ...]

    def new_components(self) -> Tuple[ComponentSpec, ...]:
        """Everything the transition package must ship."""
        return self.added + tuple(new for _old, new in self.replaced)

    def dead_components(self) -> Tuple[ComponentSpec, ...]:
        """Everything the transition removes from the running system."""
        return self.removed + tuple(old for old, _new in self.replaced)
