"""The one-frame hop: Reference.invoke and Composite.call run a started
target's operation themselves; Component.call is the only slow path.

The fast path must keep the Sec. 5.3 semantics: quiescence on stop,
buffering while stopped, the removed-component error and exact
invocation counts.
"""

import pytest

from repro.components import (
    AssemblySpec,
    ComponentImpl,
    ComponentSpec,
    LifecycleError,
    LifecycleState,
    Multiplicity,
    PromotionSpec,
    UnknownServiceError,
    WireSpec,
    make_runtime,
)
from repro.kernel import Timeout, World


class Echo(ComponentImpl):
    SERVICES = {"io": ("echo", "slow_echo")}

    def echo(self, value):
        return value

    def slow_echo(self, value):
        yield Timeout(5.0)
        return value


class Relay(ComponentImpl):
    SERVICES = {"io": ("forward",)}
    REFERENCES = {"next": Multiplicity.ONE}

    def forward(self, operation, value):
        result = yield from self.ref("next").invoke(operation, value)
        return result


SPEC = AssemblySpec(
    name="asm",
    components=(
        ComponentSpec.make("echo", Echo),
        ComponentSpec.make("relay", Relay),
    ),
    wires=(WireSpec("relay", "next", "echo", "io"),),
    promotions=(
        PromotionSpec("front", "relay", "io"),  # hop via Reference.invoke
        PromotionSpec("back", "echo", "io"),    # hop via Composite.call
    ),
)

#: entry -> (promoted service, relay operation or None) reaching echo.
ENTRIES = {
    "reference": ("front", "forward"),
    "composite": ("back", None),
}


def _hop(composite, entry, operation, value):
    external, relay_op = ENTRIES[entry]
    if relay_op is None:
        return composite.call(external, operation, value)
    return composite.call(external, relay_op, operation, value)


@pytest.fixture
def deployed():
    world = World(seed=4)
    runtime = make_runtime(world, world.add_node("alpha"))
    composite = world.run_process(runtime.deploy(SPEC), name="deploy")
    return world, runtime, composite, composite.component("echo")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_hop_into_started_component_bypasses_component_call(deployed, entry):
    world, _runtime, composite, echo = deployed
    slow_calls = []
    call = echo.call

    def spy(*args, **kwargs):
        slow_calls.append(args)
        return call(*args, **kwargs)

    echo.call = spy

    def do():
        result = yield from _hop(composite, entry, "slow_echo", "x")
        return result

    assert world.run_process(do()) == "x"
    assert slow_calls == []


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_stop_waits_for_fast_path_invocation(deployed, entry):
    world, runtime, composite, echo = deployed
    order = []

    def caller():
        yield from _hop(composite, entry, "slow_echo", "x")  # takes 5 ms
        order.append(("call_done", world.now))

    def stopper():
        yield Timeout(1.0)  # let the call get in flight
        assert echo._in_flight == 1 and not echo.quiescent
        yield from runtime.stop_component("asm", "echo")
        order.append(("stopped", world.now))

    world.sim.spawn(caller())
    world.sim.spawn(stopper())
    world.run()
    assert [tag for tag, _ in order] == ["call_done", "stopped"]
    assert order[1][1] >= order[0][1]
    assert echo.state is LifecycleState.STOPPED and echo.quiescent


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_hop_into_stopped_component_buffers_until_start(deployed, entry):
    world, runtime, composite, echo = deployed
    world.run_process(runtime.stop_component("asm", "echo"))
    before = echo.invocation_count
    results = []

    def caller():
        result = yield from _hop(composite, entry, "echo", "buffered")
        results.append((result, world.now))

    world.sim.spawn(caller())
    restart_at = world.now + 50.0

    def restarter():
        yield Timeout(50.0)
        assert results == [] and echo.invocation_count == before
        yield from runtime.start_component("asm", "echo")

    world.sim.spawn(restarter())
    world.run()
    assert results and results[0][0] == "buffered"
    assert results[0][1] >= restart_at
    assert echo.invocation_count == before + 1


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_hop_into_removed_component_raises(deployed, entry):
    world, runtime, composite, echo = deployed
    world.run_process(runtime.stop_component("asm", "echo"))
    echo.mark_removed()  # the relay's wire to it is left stale on purpose

    def do():
        yield from _hop(composite, entry, "echo", 1)

    with pytest.raises(LifecycleError, match="removed"):
        world.run_process(do())


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_unknown_operation_raises_the_precise_error(deployed, entry):
    world, _runtime, composite, _echo = deployed

    def do():
        yield from _hop(composite, entry, "nope", 1)

    with pytest.raises(UnknownServiceError, match="no operation 'nope'"):
        world.run_process(do())


@pytest.mark.parametrize("operation", ["echo", "slow_echo"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_one_invocation_per_hop(deployed, entry, operation):
    world, _runtime, composite, echo = deployed
    before = echo.invocation_count

    def do():
        result = yield from _hop(composite, entry, operation, 7)
        return result

    assert world.run_process(do()) == 7
    assert echo.invocation_count == before + 1
    assert echo.quiescent
