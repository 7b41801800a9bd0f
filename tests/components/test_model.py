"""Unit tests for components, services, references, wires and lifecycle."""

import pytest

from repro.components import (
    ComponentImpl,
    LifecycleError,
    LifecycleState,
    Multiplicity,
    UnknownReferenceError,
    UnknownServiceError,
    WiringError,
    connect,
    disconnect,
    make_runtime,
)
from repro.kernel import Timeout, World


class Echo(ComponentImpl):
    SERVICES = {"io": ("echo", "slow_echo", "glacial_echo")}

    def echo(self, value):
        return value

    def slow_echo(self, value):
        yield Timeout(5.0)
        return value

    def glacial_echo(self, value):
        yield Timeout(100.0)
        return value


class Forwarder(ComponentImpl):
    SERVICES = {"io": ("forward",)}
    REFERENCES = {"next": Multiplicity.ONE}

    def forward(self, value):
        result = yield from self.ref("next").invoke("echo", value)
        return result


class FanOut(ComponentImpl):
    REFERENCES = {"targets": Multiplicity.MANY}


@pytest.fixture
def setup():
    world = World(seed=2)
    node = world.add_node("alpha")
    runtime = make_runtime(world, node)

    def build():
        yield from runtime.boot()
        yield from runtime.create_composite("c")

    world.run_process(build(), name="build")
    return world, runtime


def _install(world, runtime, name, impl_class, start=True):
    from repro.components import ComponentSpec

    def do():
        component = yield from runtime.install("c", ComponentSpec.make(name, impl_class))
        if start:
            yield from runtime.start_component("c", name)
        return component

    return world.run_process(do(), name=f"install-{name}")


def test_component_call_plain_operation(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)

    def call():
        result = yield from echo.call("io", "echo", 42)
        return result

    assert world.run_process(call()) == 42
    assert echo.invocation_count == 1


def test_component_call_generator_operation_advances_time(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    t0 = world.now

    def call():
        result = yield from echo.call("io", "slow_echo", "hi")
        return result

    assert world.run_process(call()) == "hi"
    assert world.now == pytest.approx(t0 + 5.0)


def test_unknown_service_and_operation(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    with pytest.raises(UnknownServiceError):
        echo.service("nope")
    with pytest.raises(UnknownServiceError):
        list(echo.call("io", "nope"))
    with pytest.raises(UnknownReferenceError):
        echo.reference("nope")


def test_wire_and_invoke_through_reference(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    forwarder = _install(world, runtime, "fwd", Forwarder, start=False)
    connect(forwarder, "next", echo, "io")

    def do():
        yield from runtime.start_component("c", "fwd")
        result = yield from forwarder.call("io", "forward", "ping")
        return result

    assert world.run_process(do()) == "ping"


def test_unwired_required_reference_raises_on_invoke(setup):
    world, runtime = setup
    forwarder = _install(world, runtime, "fwd", Forwarder)

    def do():
        yield from forwarder.call("io", "forward", "ping")

    with pytest.raises(WiringError, match="not wired"):
        world.run_process(do())


def test_single_multiplicity_rejects_second_wire(setup):
    world, runtime = setup
    echo1 = _install(world, runtime, "e1", Echo)
    echo2 = _install(world, runtime, "e2", Echo)
    forwarder = _install(world, runtime, "fwd", Forwarder, start=False)
    connect(forwarder, "next", echo1, "io")
    with pytest.raises(WiringError, match="already wired"):
        connect(forwarder, "next", echo2, "io")


def test_many_multiplicity_takes_several_wires(setup):
    world, runtime = setup
    echo1 = _install(world, runtime, "e1", Echo)
    echo2 = _install(world, runtime, "e2", Echo)
    fan = _install(world, runtime, "fan", FanOut, start=False)
    connect(fan, "targets", echo1, "io")
    connect(fan, "targets", echo2, "io")
    assert [wire.target for wire in fan.reference("targets").wires] == [echo1, echo2]
    assert fan.reference("targets").satisfied()


def test_disconnect_removes_wire(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    forwarder = _install(world, runtime, "fwd", Forwarder, start=False)
    connect(forwarder, "next", echo, "io")
    disconnect(forwarder, "next", echo, "io")
    assert not forwarder.reference("next").wired
    with pytest.raises(WiringError, match="no wire"):
        disconnect(forwarder, "next", echo, "io")


def test_invocation_on_stopped_component_buffers_until_start(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)

    def stop_then_call():
        yield from runtime.stop_component("c", "echo")
        assert echo.state == LifecycleState.STOPPED
        return "stopped"

    world.run_process(stop_then_call())

    results = []

    def caller():
        result = yield from echo.call("io", "echo", "buffered")
        results.append((result, world.now))

    world.sim.spawn(caller())
    restart_at = world.now + 50.0

    def restarter():
        yield Timeout(50.0)
        yield from runtime.start_component("c", "echo")

    world.sim.spawn(restarter())
    world.run()
    assert results and results[0][0] == "buffered"
    assert results[0][1] >= restart_at


def test_stop_waits_for_quiescence(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    order = []

    def long_caller():
        result = yield from echo.call("io", "slow_echo", "x")  # takes 5ms
        order.append(("call_done", world.now))
        return result

    def stopper():
        yield Timeout(1.0)  # let the call get in flight
        yield from runtime.stop_component("c", "echo")
        order.append(("stopped", world.now))

    world.sim.spawn(long_caller())
    world.sim.spawn(stopper())
    world.run()
    assert order[0][0] == "call_done"
    assert order[1][0] == "stopped"
    assert order[1][1] >= order[0][1]
    assert echo.state == LifecycleState.STOPPED


def test_start_while_stopping_is_illegal(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    failures = []

    def long_caller():
        yield from echo.call("io", "glacial_echo", "x")

    def bad_starter():
        yield Timeout(1.0)
        stop_process = world.sim.spawn(runtime.stop_component("c", "echo"))
        yield Timeout(50.0)
        try:
            echo.start()
        except LifecycleError as exc:
            failures.append(str(exc))
        yield stop_process

    world.sim.spawn(long_caller())
    world.run_process(bad_starter())
    assert failures and "stopping" in failures[0]


def test_removed_component_rejects_everything(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)

    def do():
        yield from runtime.stop_component("c", "echo")
        yield from runtime.remove_component("c", "echo")

    world.run_process(do())
    assert echo.state == LifecycleState.REMOVED
    with pytest.raises(LifecycleError):
        echo.start()

    def call():
        yield from echo.call("io", "echo", 1)

    with pytest.raises(LifecycleError, match="removed"):
        world.run_process(call())


def test_remove_started_component_is_illegal(setup):
    world, runtime = setup
    _install(world, runtime, "echo", Echo)

    def do():
        yield from runtime.remove_component("c", "echo")

    with pytest.raises(LifecycleError):
        world.run_process(do())


def test_remove_with_outgoing_wire_is_illegal(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    forwarder = _install(world, runtime, "fwd", Forwarder, start=False)
    connect(forwarder, "next", echo, "io")

    def do():
        yield from runtime.remove_component("c", "fwd")

    with pytest.raises(WiringError, match="outgoing wires"):
        world.run_process(do())


def test_properties_roundtrip(setup):
    world, runtime = setup
    echo = _install(world, runtime, "echo", Echo)
    echo.set_property("threshold", 3)
    assert echo.get_property("threshold") == 3
    assert echo.get_property("missing", default="d") == "d"
    assert echo.implementation.prop("threshold") == 3
