"""Transactional interpreter for reconfiguration scripts.

Implements the FScript contract the paper relies on (Sec. 5.3, *local
consistency*): a script executes **all-or-nothing**.  Every applied
statement pushes an inverse operation; any failure — including an
architectural integrity violation detected at commit — rolls the
composite back to its initial configuration and raises
:class:`ScriptException`.

The interpreter charges calibrated virtual time per statement and at
commit/rollback, which the Figure 9 benchmark decomposes.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Mapping, Optional, Set

from repro.components.composite import Composite
from repro.components.errors import ComponentError
from repro.components.model import LifecycleState
from repro.components.runtime import ComponentRuntime
from repro.components.spec import ComponentSpec
from repro.script.ast import (
    Add,
    Demote,
    Promote,
    Remove,
    SetProperty,
    Start,
    Statement,
    Stop,
    TransitionScript,
    UnwireStmt,
    WireStmt,
)
from repro.script.errors import RollbackFailed, ScriptException

_MISSING = object()


class ScriptInterpreter:
    """Executes parsed scripts against one node's component runtime."""

    def __init__(self, runtime: ComponentRuntime):
        self.runtime = runtime
        self.executed_scripts = 0
        self.rolled_back_scripts = 0

    # -- public API ------------------------------------------------------------

    def execute(
        self,
        script: TransitionScript,
        package: Optional[Mapping[str, ComponentSpec]] = None,
    ) -> Generator:
        """Run the script transactionally (generator; ``yield from``).

        ``package`` maps component names to the specs shipped in the
        transition package; ``add`` statements resolve against it.
        """
        package = dict(package or {})
        costs = self.runtime.costs
        yield from self.runtime.node.compute(costs.script_parse)

        undo_stack: List[Callable[[], Generator]] = []
        touched: Set[str] = set()
        announce = self.runtime.context.trace.announce
        try:
            for index, statement in enumerate(script.statements):
                failed = announce(
                    "script", "statement", self.runtime.node, index=index
                ).failed
                if failed:
                    # A statement boundary that did not hold (a listener
                    # on the boundary stream says why): the local
                    # transaction aborts and rolls back (undo stack fully
                    # unwound, gate reopened by the caller) before the
                    # fail-silent wrapper takes the replica down.
                    raise _Abort(index, ComponentError(failed))
                yield from self.runtime.node.compute(costs.script_step)
                try:
                    yield from self._apply(statement, package, undo_stack, touched)
                except (ComponentError, KeyError, ValueError) as cause:
                    raise _Abort(index, cause) from cause
            # transactional commit: architectural integrity must hold
            yield from self.runtime.node.compute(costs.script_commit)
            violations: List[str] = []
            for composite_name in sorted(touched):
                composite = self.runtime.composites.get(composite_name)
                if composite is not None:
                    violations.extend(composite.integrity_violations())
            if violations:
                raise _Abort(len(script.statements), ComponentError("; ".join(violations)))
        except _Abort as abort:
            yield from self._rollback(undo_stack)
            self.rolled_back_scripts += 1
            self.runtime.context.trace.record(
                "script",
                "rollback",
                node=self.runtime.node.name,
                script=script.name,
                at_statement=abort.index,
            )
            raise ScriptException(
                str(abort.cause), abort.index, abort.cause
            ) from abort.cause

        self.executed_scripts += 1
        self.runtime.context.trace.record(
            "script",
            "commit",
            node=self.runtime.node.name,
            script=script.name,
            statements=len(script.statements),
        )

    # -- statement dispatch ------------------------------------------------------

    def _apply(
        self,
        statement: Statement,
        package: Mapping[str, ComponentSpec],
        undo_stack: List[Callable[[], Generator]],
        touched: Set[str],
    ) -> Generator:
        runtime = self.runtime

        if isinstance(statement, Stop):
            composite, component = statement.path.composite, statement.path.component
            touched.add(composite)
            was_started = (
                runtime.composite(composite).component(component).state
                == LifecycleState.STARTED
            )
            yield from runtime.stop_component(composite, component)
            if was_started:
                undo_stack.append(
                    lambda: runtime.start_component(composite, component)
                )
            return

        if isinstance(statement, Start):
            composite, component = statement.path.composite, statement.path.component
            touched.add(composite)
            yield from runtime.start_component(composite, component)
            undo_stack.append(lambda: runtime.stop_component(composite, component))
            return

        if isinstance(statement, Add):
            composite, component = statement.path.composite, statement.path.component
            touched.add(composite)
            if component not in package:
                raise KeyError(
                    f"component {component!r} is not in the transition package "
                    f"(package has: {sorted(package)})"
                )
            yield from runtime.install(composite, package[component], preloaded=True)
            undo_stack.append(lambda: runtime.remove_component(composite, component))
            return

        if isinstance(statement, Remove):
            composite_name = statement.path.composite
            component_name = statement.path.component
            touched.add(composite_name)
            composite = runtime.composite(composite_name)
            removed = composite.component(component_name)
            yield from runtime.remove_component(composite_name, component_name)

            def undo_remove(
                composite=composite, component=removed
            ) -> Generator:
                _reinsert(composite, component)
                yield from runtime.node.compute(runtime.costs.component_attach)

            undo_stack.append(undo_remove)
            return

        if isinstance(statement, WireStmt):
            self._check_same_composite(statement)
            composite = statement.source.composite
            touched.add(composite)
            args = (
                composite,
                statement.source.component,
                statement.reference,
                statement.target.component,
                statement.service,
            )
            yield from runtime.wire(*args)
            undo_stack.append(lambda: runtime.unwire(*args))
            return

        if isinstance(statement, UnwireStmt):
            self._check_same_composite(statement)
            composite = statement.source.composite
            touched.add(composite)
            args = (
                composite,
                statement.source.component,
                statement.reference,
                statement.target.component,
                statement.service,
            )
            yield from runtime.unwire(*args)
            undo_stack.append(lambda: runtime.wire(*args))
            return

        if isinstance(statement, SetProperty):
            composite_name = statement.path.composite
            component_name = statement.path.component
            touched.add(composite_name)
            component = runtime.composite(composite_name).component(component_name)
            old = component.properties.get(statement.key, _MISSING)
            yield from runtime.set_property(
                composite_name, component_name, statement.key, statement.value
            )

            def undo_set(component=component, key=statement.key, old=old) -> Generator:
                if old is _MISSING:
                    component.properties.pop(key, None)
                else:
                    component.properties[key] = old
                yield from runtime.node.compute(runtime.costs.script_step)

            undo_stack.append(undo_set)
            return

        if isinstance(statement, Promote):
            composite = runtime.composite(statement.composite)
            touched.add(statement.composite)
            composite.promote(statement.external, statement.component, statement.service)
            yield from runtime.node.compute(runtime.costs.script_step)
            undo_stack.append(
                lambda: _noop_gen(lambda: composite.demote(statement.external))
            )
            return

        if isinstance(statement, Demote):
            composite = runtime.composite(statement.composite)
            touched.add(statement.composite)
            old_target = composite.promotions.get(statement.external)
            composite.demote(statement.external)
            yield from runtime.node.compute(runtime.costs.script_step)
            undo_stack.append(
                lambda: _noop_gen(
                    lambda: composite.promote(statement.external, *old_target)
                )
            )
            return

        raise ValueError(f"unknown statement type {type(statement).__name__}")

    @staticmethod
    def _check_same_composite(statement) -> None:
        if statement.source.composite != statement.target.composite:
            raise ValueError(
                f"cross-composite wire {statement.source} -> {statement.target} "
                "is not supported"
            )

    # -- rollback ----------------------------------------------------------------------

    def _rollback(self, undo_stack: List[Callable[[], Generator]]) -> Generator:
        yield from self.runtime.node.compute(self.runtime.costs.script_rollback)
        try:
            while undo_stack:
                undo = undo_stack.pop()
                yield from undo()
        except Exception as exc:  # noqa: BLE001 - must surface as corruption
            raise RollbackFailed(f"rollback failed: {exc}") from exc


class _Abort(Exception):
    """Internal control flow: a statement failed, transaction must roll back."""

    def __init__(self, index: int, cause: Exception):
        super().__init__(str(cause))
        self.index = index
        self.cause = cause


def _reinsert(composite: Composite, component) -> None:
    """Rollback-only resurrection of a removed component."""
    component.state = LifecycleState.STOPPED
    component.composite = composite
    composite.components[component.name] = component


def _noop_gen(action: Callable[[], None]) -> Generator:
    action()
    return
    yield  # pragma: no cover - makes this a generator function
