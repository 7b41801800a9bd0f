"""Generate transition scripts from assembly diffs.

Given the structural diff between the running FTM's blueprint and the
target FTM's blueprint, produce exactly the script the paper describes
for PBR→LFR (Sec. 5.2):

1. stop the components that go away (quiescence),
2. disconnect them from all their services and references,
3. delete old components and add the new ones,
4. connect the new components,
5. start them,
6. adjust promotions.

Only the *variable features* appear in the script; the massive common
parts are never touched — that is the differential-transition property
the Table 3 benchmark measures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.components.spec import AssemblyDiff
from repro.script.ast import (
    Add,
    Demote,
    Path,
    Promote,
    Remove,
    Start,
    Statement,
    Stop,
    TransitionScript,
    UnwireStmt,
    WireStmt,
)


def script_from_diff(
    diff: AssemblyDiff, composite_name: str, name: str = ""
) -> TransitionScript:
    """Build the differential transition script for ``diff``.

    ``composite_name`` is the runtime composite the script addresses —
    blueprints are composite-agnostic, deployments are not.
    """
    if not name:
        name = f"{diff.source.name}-to-{diff.target.name}"

    dead = {spec.name for spec in diff.dead_components()}
    fresh = {spec.name for spec in diff.new_components()}

    paths: Dict[str, Path] = {}

    def path(component: str) -> Path:
        # one Path per component: a validated script lives as long as the
        # process (core.repository.catalogue_package), so keep it small
        found = paths.get(component)
        if found is None:
            found = paths[component] = Path(composite_name, component)
        return found

    statements: List[Statement] = []

    # 1. stop every component that will be deleted
    for component in sorted(dead):
        statements.append(Stop(path(component)))

    # wires present in both blueprints but touching a replaced component must
    # be re-established around the swap
    rewired = tuple(
        wire
        for wire in diff.target.wires
        if wire in diff.source.wires and (wire.source in dead or wire.target in dead)
    )

    # 2. disconnect the old wires (those not in the target, plus the rewired)
    for wire in diff.wires_removed + rewired:
        statements.append(
            UnwireStmt(path(wire.source), wire.reference, path(wire.target), wire.service)
        )

    # promotions that point at dead components must be dropped before removal;
    # those kept by the target blueprint are re-established after the adds
    repointed = tuple(
        promotion
        for promotion in diff.target.promotions
        if promotion in diff.source.promotions and promotion.component in dead
    )
    for promotion in diff.promotions_removed + repointed:
        statements.append(Demote(composite_name, promotion.external))

    # 3a. delete old components
    for component in sorted(dead):
        statements.append(Remove(path(component)))

    # 3b. add the new ones (shipped in the transition package)
    for component in sorted(fresh):
        statements.append(Add(path(component)))

    # 4. connect the new wires (and re-establish the rewired ones)
    for wire in diff.wires_added + rewired:
        statements.append(
            WireStmt(path(wire.source), wire.reference, path(wire.target), wire.service)
        )

    # 5. start the new components
    for component in sorted(fresh):
        statements.append(Start(path(component)))

    # 6. new promotions (and the ones re-pointed at replacement components)
    for promotion in diff.promotions_added + repointed:
        statements.append(
            Promote(promotion.external, composite_name, promotion.component, promotion.service)
        )

    return TransitionScript(name=name, statements=tuple(statements))
