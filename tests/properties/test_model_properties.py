"""Property-based tests over blueprints, diffs, scripts and the FT model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency import evaluate_ftm
from repro.core.parameters import (
    ApplicationCharacteristics,
    FaultClass,
    FaultToleranceRequirements,
    ResourceState,
    SystemContext,
)
from repro.core.repository import spec_architecture
from repro.core.transition_graph import select_target
from repro.ftm import FTM_NAMES, ftm_assembly, variable_feature_distance
from repro.patterns import CounterServer, Request
from repro.script import parse, render, script_from_diff, validate_script
from repro.script.errors import ScriptSyntaxError

ftm_names = st.sampled_from(FTM_NAMES)

contexts = st.builds(
    SystemContext,
    ft=st.builds(
        FaultToleranceRequirements,
        fault_classes=st.frozensets(
            st.sampled_from(
                [FaultClass.CRASH, FaultClass.TRANSIENT_VALUE, FaultClass.PERMANENT_VALUE]
            ),
            min_size=1,
        ),
    ),
    a=st.builds(
        ApplicationCharacteristics,
        deterministic=st.booleans(),
        state_accessible=st.booleans(),
    ),
    r=st.builds(
        ResourceState,
        bandwidth_ok=st.booleans(),
        cpu_ok=st.booleans(),
    ),
)


# -- blueprint diff algebra ------------------------------------------------------


@given(ftm_names)
def test_diff_with_self_is_identity(ftm):
    spec = ftm_assembly(ftm, role="master", peer="beta")
    assert spec.diff(spec).is_identity


@given(ftm_names, ftm_names)
def test_diff_component_count_equals_feature_distance(a, b):
    spec_a = ftm_assembly(a, role="master", peer="beta")
    spec_b = ftm_assembly(b, role="master", peer="beta")
    assert spec_a.diff(spec_b).touched_component_count == variable_feature_distance(a, b)


@given(ftm_names, ftm_names)
def test_diff_is_antisymmetric(a, b):
    spec_a = ftm_assembly(a, role="master", peer="beta")
    spec_b = ftm_assembly(b, role="master", peer="beta")
    forward = spec_a.diff(spec_b)
    backward = spec_b.diff(spec_a)
    assert {s.name for s in forward.new_components()} == {
        s.name for s in backward.new_components()
    }
    assert forward.wires_added == backward.wires_removed
    assert forward.wires_removed == backward.wires_added


@given(ftm_names, ftm_names)
def test_generated_scripts_always_validate(a, b):
    """Off-line validation accepts every catalog-to-catalog transition."""
    spec_a = ftm_assembly(a, role="master", peer="beta")
    spec_b = ftm_assembly(b, role="master", peer="beta")
    diff = spec_a.diff(spec_b)
    script = script_from_diff(diff, "ftm")
    problems = validate_script(
        script,
        {"ftm": spec_architecture(spec_a)},
        [s.name for s in diff.new_components()],
    )
    assert problems == []


@given(ftm_names, ftm_names)
def test_script_roundtrips_through_render(a, b):
    spec_a = ftm_assembly(a, role="master", peer="beta")
    spec_b = ftm_assembly(b, role="master", peer="beta")
    script = script_from_diff(spec_a.diff(spec_b), "ftm")
    assert parse(render(script)) == script


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_parser_never_crashes_unexpectedly(text):
    """The parser either parses or raises ScriptSyntaxError — never anything else."""
    try:
        parse(text)
    except ScriptSyntaxError:
        pass


# -- (FT, A, R) model -----------------------------------------------------------------


@given(ftm_names, contexts)
def test_validity_reasons_accompany_invalidity(ftm, context):
    report = evaluate_ftm(ftm, context)
    if not report.valid:
        assert report.reasons
    assert report.cost >= 0


@given(contexts)
def test_selected_target_is_always_valid(context):
    target = select_target(None, context)
    if target is not None:
        assert evaluate_ftm(target, context).valid


@given(ftm_names, contexts)
def test_select_target_is_idempotent(ftm, context):
    """Once on the selected target, re-selection does not move again."""
    target = select_target(ftm, context)
    if target is not None:
        assert select_target(target, context) == target


@given(contexts)
def test_no_generic_solution_iff_nondeterministic_without_state(context):
    target = select_target(None, context)
    hopeless = (
        not context.a.deterministic and not context.a.state_accessible
    ) or (
        not context.a.deterministic
        and context.ft.names() - {"crash"}  # value faults need determinism
    )
    if hopeless:
        assert target is None
    else:
        assert target is not None


# -- at-most-once & voting ----------------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=30))
def test_at_most_once_under_arbitrary_duplication(request_ids):
    """However requests are duplicated/reordered, each id executes once."""
    from repro.patterns import PBR, LocalLink, Role

    master = PBR(CounterServer(), role=Role.MASTER)
    slave = PBR(CounterServer(), role=Role.SLAVE)
    LocalLink(master, slave)
    for request_id in request_ids:
        master.handle_request(Request(request_id, "client", ("add", 1)))
    assert master.server.total == len(set(request_ids))


class _ScriptedServer(CounterServer):
    """Returns the scripted results in order, one per execution."""

    def __init__(self, results):
        super().__init__()
        self.results = list(results)

    def process(self, payload):
        return self.results.pop(0)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3))
def test_time_redundancy_vote_agrees_with_any_two_equal(results):
    """TR's 2-out-of-3 arbitration: a value seen twice wins, else unmasked."""
    from repro.patterns import TimeRedundancy, UnmaskedFaultError

    tr = TimeRedundancy(_ScriptedServer(results))
    first, second, third = results
    if first == second or third in (first, second):
        reply = tr.handle_request(Request(1, "client", ("add", 1)))
        assert results.count(reply.value) >= 2
    else:
        try:
            tr.handle_request(Request(1, "client", ("add", 1)))
            assert False, "expected UnmaskedFaultError"
        except UnmaskedFaultError:
            pass
