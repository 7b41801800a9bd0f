"""Crash faults at script-statement boundaries (property-style).

A crash caught at ANY statement boundary of the reconfiguration script
must leave the replica's composite transactionally clean before the
fail-silent wrapper takes the node down: the undo stack fully unwound
(the architecture is byte-for-byte the pre-script one) and the input
gate reopened.  The test parametrises over every boundary of the
pbr->lfr script and checks the invariant on a composite reference held
from *before* the transition — exactly what a concurrent observer
(a buffered request, a monitor) would see.
"""

import pytest

from repro.core import AdaptationEngine
from repro.ftm import deploy_ftm_pair
from repro.kernel import Fault, Timeout, World


def _snapshot(composite):
    """The observable architecture: components, states, wires, promotions."""
    arch = composite.architecture()
    return (
        tuple(sorted(arch["components"].items())),
        tuple(sorted(map(tuple, arch["wires"]))),
        tuple(sorted(arch["promotions"].items())),
    )


def _script_length():
    from repro.core import Repository

    package = Repository().transition_package(
        "pbr", "lfr", role="slave", peer="alpha"
    )
    return len(package.script.statements)


SCRIPT_LENGTH = _script_length()


@pytest.mark.parametrize("boundary", range(SCRIPT_LENGTH))
def test_crash_at_each_statement_boundary_rolls_back_cleanly(boundary):
    world = World(seed=80 + boundary)
    world.add_nodes(["alpha", "beta", "client"])

    def deploy():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        return pair

    pair = world.run_process(deploy(), name="deploy")
    engine = AdaptationEngine(world, pair)

    beta = pair.replica_on("beta")
    held_composite = beta.composite  # the pre-transition reference
    before = _snapshot(held_composite)
    assert held_composite.gate_open

    world.faults.arm(
        Fault("crash", "beta", phase="script", statement=boundary)
    )

    def do():
        report = yield from engine.transition("lfr")
        yield Timeout(1_000.0)
        return report

    report = world.run_process(do(), name="crash-at-boundary")

    beta_report = next(r for r in report.replicas if r.node == "beta")
    assert beta_report.killed
    assert beta_report.success is False
    assert f"statement {boundary}" in (beta_report.error or "")

    # the undo stack was fully unwound on the held composite: the
    # architecture observed through the old reference is the pre-script one
    assert _snapshot(held_composite) == before
    # ... and the gate was reopened before the kill (buffered requests
    # were never stranded behind a closed gate)
    assert held_composite.gate_open

    # only then did the fail-silent wrapper take the node down
    assert not world.cluster.node("beta").is_up
    assert world.trace.count("script", "rollback") == 1

    # the peer completed: the transition as a whole still succeeded
    alpha_report = next(r for r in report.replicas if r.node == "alpha")
    assert alpha_report.success
    assert pair.ftm == "lfr"


def test_script_crash_budget_is_consumed_once():
    """A budget-1 crash fires on one replica only; a rerun is clean."""
    world = World(seed=99)
    world.add_nodes(["alpha", "beta", "client"])

    def deploy():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        return pair

    pair = world.run_process(deploy(), name="deploy")
    pair.enable_recovery(restart_delay=300.0)
    engine = AdaptationEngine(world, pair)
    world.faults.arm(Fault("crash", "beta", phase="script", statement=0))

    def do():
        first = yield from engine.transition("lfr")
        yield Timeout(10_000.0)  # beta recovers into lfr
        second = yield from engine.transition("pbr")
        return first, second

    first, second = world.run_process(do(), name="two-transitions")
    assert first.success
    assert next(r for r in first.replicas if r.node == "beta").killed
    # the budget was spent: the second transition runs fault-free
    assert second.success
    assert all(r.success for r in second.replicas)
    assert [(r.detail("phase"), r.detail("kind")) for r in world.trace.select(
        "fault", "transition_fault_injected")] == [("script", "crash")]
