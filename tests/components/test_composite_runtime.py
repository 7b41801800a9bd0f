"""Unit tests for composites, the input gate, specs/diffs and the runtime."""

import pytest

from repro.components import (
    AssemblySpec,
    ComponentError,
    ComponentImpl,
    ComponentSpec,
    Multiplicity,
    PromotionSpec,
    UnknownComponentError,
    UnknownServiceError,
    WireSpec,
    WiringError,
    make_runtime,
)
from repro.kernel import Timeout, World


class Source(ComponentImpl):
    SERVICES = {"io": ("produce",)}

    def produce(self):
        return self.prop("value", "default")


class Relay(ComponentImpl):
    SERVICES = {"io": ("pull",)}
    REFERENCES = {"upstream": Multiplicity.ONE}

    def pull(self):
        result = yield from self.ref("upstream").invoke("produce")
        return result


def spec_pair(relay_value="v1"):
    return AssemblySpec(
        name="asm",
        components=(
            ComponentSpec.make("src", Source, {"value": relay_value}),
            ComponentSpec.make("relay", Relay),
        ),
        wires=(WireSpec("relay", "upstream", "src", "io"),),
        promotions=(PromotionSpec("front", "relay", "io"),),
    )


@pytest.fixture
def world():
    return World(seed=3)


@pytest.fixture
def runtime(world):
    node = world.add_node("alpha")
    return make_runtime(world, node)


def deploy(world, runtime, spec):
    def do():
        composite = yield from runtime.deploy(spec)
        return composite

    return world.run_process(do(), name="deploy")


# -- deployment ------------------------------------------------------------------


def test_deploy_builds_whole_assembly(world, runtime):
    composite = deploy(world, runtime, spec_pair())
    arch = composite.architecture()
    assert arch["components"] == {"relay": "started", "src": "started"}
    assert arch["wires"] == [("relay", "upstream", "src", "io")]
    assert arch["promotions"] == {"front": ("relay", "io")}


def test_deploy_charges_calibrated_time(world, runtime):
    deploy(world, runtime, spec_pair())
    costs = world.costs
    floor = (
        costs.runtime_boot
        + costs.composite_create
        + 2 * costs.component_install
        + costs.wire_connect
        + 2 * costs.component_start
    )
    # within jitter of the calibrated floor
    assert world.now == pytest.approx(floor, rel=0.15)


def test_deploy_rejects_invalid_spec(world, runtime):
    bad = AssemblySpec(
        name="bad",
        components=(ComponentSpec.make("src", Source),),
        wires=(WireSpec("src", "x", "ghost", "io"),),
    )
    with pytest.raises(ComponentError, match="invalid assembly"):
        deploy(world, runtime, bad)


def test_deploy_requires_wired_required_references(world, runtime):
    # relay has a required reference but no wire -> integrity failure at start
    bad = AssemblySpec(
        name="bad",
        components=(ComponentSpec.make("relay", Relay),),
        wires=(),
    )
    with pytest.raises(Exception, match="integrity"):
        deploy(world, runtime, bad)


def test_promoted_call_goes_through(world, runtime):
    composite = deploy(world, runtime, spec_pair())

    def call():
        result = yield from composite.call("front", "pull")
        return result

    assert world.run_process(call()) == "v1"


def test_unknown_promotion(world, runtime):
    composite = deploy(world, runtime, spec_pair())
    with pytest.raises(UnknownServiceError):
        composite.resolve("nope")


def test_runtime_not_booted_rejects_composites(world):
    node = world.add_node("beta")
    runtime = make_runtime(world, node)
    with pytest.raises(ComponentError, match="not booted"):
        world.run_process(runtime.create_composite("c"))


def test_node_crash_wipes_runtime(world, runtime):
    deploy(world, runtime, spec_pair())
    runtime.node.crash()
    assert not runtime.booted
    assert runtime.composites == {}


# -- the input gate --------------------------------------------------------------


def test_gate_buffers_external_calls(world, runtime):
    composite = deploy(world, runtime, spec_pair())
    composite.close_gate()
    results = []

    def caller():
        result = yield from composite.call("front", "pull")
        results.append((result, world.now))

    world.sim.spawn(caller())
    reopen_at = world.now + 30.0

    def opener():
        yield Timeout(30.0)
        composite.open_gate()

    world.sim.spawn(opener())
    world.run()
    assert results and results[0][0] == "v1"
    assert results[0][1] >= reopen_at
    assert composite.buffered_while_closed == 1


def test_gate_fifo_drain(world, runtime):
    composite = deploy(world, runtime, spec_pair())
    composite.close_gate()
    order = []

    def caller(tag):
        yield from composite.call("front", "pull")
        order.append(tag)

    for tag in ("a", "b", "c"):
        world.sim.spawn(caller(tag))

    def opener():
        yield Timeout(5.0)
        composite.open_gate()

    world.sim.spawn(opener())
    world.run()
    assert order == ["a", "b", "c"]


# -- composite membership rules ----------------------------------------------------


def test_remove_with_incoming_wires_rejected(world, runtime):
    composite = deploy(world, runtime, spec_pair())

    def do():
        yield from runtime.stop_component("asm", "src")
        yield from runtime.remove_component("asm", "src")

    with pytest.raises(WiringError, match="incoming wires"):
        world.run_process(do())


def test_remove_promotion_target_rejected(world, runtime):
    composite = deploy(world, runtime, spec_pair())

    def do():
        yield from runtime.stop_component("asm", "relay")
        yield from runtime.unwire("asm", "relay", "upstream", "src", "io")
        yield from runtime.remove_component("asm", "relay")

    with pytest.raises(WiringError, match="promotions"):
        world.run_process(do())


def test_unknown_component_lookup(world, runtime):
    composite = deploy(world, runtime, spec_pair())
    with pytest.raises(UnknownComponentError):
        composite.component("ghost")


def test_destroy_composite_cleans_up(world, runtime):
    deploy(world, runtime, spec_pair())

    def do():
        yield from runtime.destroy_composite("asm")

    world.run_process(do())
    assert "asm" not in runtime.composites


def test_integrity_violations_detect_unwired_reference(world, runtime):
    composite = deploy(world, runtime, spec_pair())

    def do():
        yield from runtime.unwire("asm", "relay", "upstream", "src", "io")

    world.run_process(do())
    violations = composite.integrity_violations()
    assert any("unwired required reference" in v for v in violations)


# -- spec diffing -----------------------------------------------------------------------


def test_diff_identity():
    diff = spec_pair().diff(spec_pair())
    assert diff.new_components() == diff.dead_components() == ()
    assert diff.wires_added == diff.wires_removed == ()
    assert diff.promotions_added == diff.promotions_removed == ()


def test_diff_detects_property_change_as_replacement():
    diff = spec_pair("v1").diff(spec_pair("v2"))
    assert len(diff.replaced) == 1
    old, new = diff.replaced[0]
    assert old.name == new.name == "src"
    assert diff.new_components() == (new,)


def test_diff_detects_added_and_removed():
    base = spec_pair()
    extended = AssemblySpec(
        name="asm",
        components=base.components + (ComponentSpec.make("extra", Source),),
        wires=base.wires,
        promotions=base.promotions,
    )
    diff = base.diff(extended)
    assert [c.name for c in diff.added] == ["extra"]
    back = extended.diff(base)
    assert [c.name for c in back.removed] == ["extra"]


def test_diff_wire_changes():
    base = spec_pair()
    rewired = AssemblySpec(
        name="asm",
        components=base.components,
        wires=(),
        promotions=base.promotions,
    )
    diff = base.diff(rewired)
    assert diff.wires_removed == base.wires
    assert diff.wires_added == ()


def test_diff_package_contents():
    diff = spec_pair("v1").diff(spec_pair("v2"))
    names = [c.name for c in diff.new_components()]
    assert names == ["src"]
    assert diff.new_components()[0].size == 4096
    assert [c.name for c in diff.dead_components()] == ["src"]


def test_spec_component_lookup():
    spec = spec_pair()
    assert spec.component("src").impl_class is Source
    with pytest.raises(KeyError):
        spec.component("ghost")
    assert spec.component_names() == frozenset({"src", "relay"})
