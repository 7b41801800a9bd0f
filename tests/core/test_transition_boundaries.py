"""The transition path announces its boundaries; nobody probes.

Every mission of the parent-recorded parity golden
(``tests/golden/transition_parity.json``: 51 matrix cells x 2 seeds on a
hosted repository, plus the unhosted drivers) runs once here with a third
listener — a plain recorder — beside the fault injector, and must

* leave behind exactly what the probing tree left (trace digest, every
  report field, RNG substream states, speeds, links, loss), recorder
  attached: a listener costs the mission nothing it can observe;
* announce a well-formed stream: per node ``(fetch deploy)+ script
  remove``, every ``enter`` closed by its ``leave`` however the phase
  ended, every crossing inside its own phase;
* carry enough to rebuild each replica's ``deploy_ms``/``script_ms``/
  ``remove_ms`` bit for bit — the sink ROADMAP item 2's timelines need.
"""

import ast
import functools
import json
from types import SimpleNamespace

import pytest

from repro.core import AdaptationEngine, Repository
from repro.ftm import deploy_ftm_pair
from repro.kernel import World
from tests.golden import transition_parity

GOLDEN = json.loads(transition_parity.GOLDEN_PATH.read_text())
MISSIONS = transition_parity.missions()

#: The phase each crossing belongs to.
CROSSINGS = {"chunk": "fetch", "payload": "deploy", "script": "script",
             "statement": "script", "residue": "remove"}

#: Phases that may follow a phase that completed (``None``: the stream's start,
#: the end of a transition, or a phase that failed).
NEXT = {None: {"fetch"}, "fetch": {"deploy"}, "deploy": {"fetch", "script"},
        "script": {"remove"}, "remove": {"fetch"}}


@functools.lru_cache(maxsize=None)
def _run(name):
    """One golden mission, run once: its fingerprints, and per world the
    recorded boundary stream beside the replica reports it must explain
    (read back from the fingerprint: ``repr`` round-trips a float)."""
    streams = []

    def record(world):
        streams.append([])
        world.trace.listen(streams[-1].append)

    prints = transition_parity.fingerprint(MISSIONS[name], on_world=record)
    assert len(prints) == len(streams)
    reports = [
        [
            SimpleNamespace(**{k: ast.literal_eval(v) for k, v in replica.items()})
            for report in world["reports"] for replica in report
            if replica["error"] != repr("replica down")
        ]
        for world in prints
    ]
    return prints, list(zip(streams, reports))


def test_the_golden_covers_every_mission():
    assert sorted(GOLDEN) == sorted(MISSIONS)
    cells = {tuple(name.split("|")[1:3])
             for name in MISSIONS if name.startswith("matrix|")}
    assert len(cells) == 51  # 3 transitions x (none + 4 phases x 4 kinds)


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_mission_leaves_what_the_probing_tree_left(name):
    prints, _ = _run(name)
    assert prints == GOLDEN[name]


def _by_node(stream):
    nodes = {}
    for boundary in stream:
        nodes.setdefault(boundary.node.name, []).append(boundary)
    return nodes


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_boundary_grammar(name):
    _, worlds = _run(name)
    assert any(stream for stream, _ in worlds)
    for stream, _ in worlds:
        assert [b.time for b in stream] == sorted(b.time for b in stream)
        for node, boundaries in _by_node(stream).items():
            inside, last = None, None
            for b in boundaries:
                if b.point == "enter":
                    assert inside is None, f"{node}: {b.phase} inside {inside}"
                    assert b.phase in NEXT[last], f"{node}: {last} -> {b.phase}"
                    inside = b.phase
                elif b.point == "leave":
                    assert inside == b.phase, f"{node}: stray leave {b.phase}"
                    inside, last = None, None if b.failed else b.phase
                else:
                    assert inside == b.phase == CROSSINGS[b.point], (
                        f"{node}: {b.point} of {b.phase} inside {inside}"
                    )
            assert inside is None, f"{node}: {inside} never left"


def _rebuilt_timings(boundaries):
    """What the recorder makes of one node's stream: one
    ``[deploy_ms, script_ms, remove_ms]`` per transition, each a single
    subtraction between two announced instants."""
    transitions, starts, last = [], {}, None
    for b in boundaries:
        if b.point == "enter":
            if b.phase == "fetch" and last != "deploy":
                transitions.append([0.0, 0.0, 0.0])
                starts = {}
            starts.setdefault("deploy" if b.phase == "fetch" else b.phase, b.time)
        elif b.point == "leave":
            last = None if b.failed else b.phase
            if last in ("deploy", "script", "remove"):
                slot = ("deploy", "script", "remove").index(last)
                transitions[-1][slot] = b.time - starts[last]
    return transitions


@pytest.mark.parametrize("name", sorted(MISSIONS))
def test_a_recorder_rebuilds_the_phase_timings_bit_for_bit(name):
    _, worlds = _run(name)
    for stream, reports in worlds:
        by_node = _by_node(stream)
        assert sorted(by_node) == sorted({r.node for r in reports})
        for node, boundaries in by_node.items():
            assert _rebuilt_timings(boundaries) == [
                [r.deploy_ms, r.script_ms, r.remove_ms]
                for r in reports if r.node == node
            ]


@pytest.mark.parametrize("name, failure", [
    ("deploy/crash", "NodeDown"),
    ("fetch/omission", None),  # the window delays the fetch, it completes
    ("script/corrupt", "ScriptException"),
    ("script/crash", "ScriptException"),
])
def test_a_phase_that_fails_still_announces_its_leave(name, failure):
    mission = next(m for m in sorted(MISSIONS) if f"pbr->lfr|{name}|" in m)
    (stream, _), = _run(mission)[1]
    phase = name.split("/")[0]
    leaves = [b for b in stream
              if b.node.name == "beta" and (b.phase, b.point) == (phase, "leave")]
    assert [b.failed for b in leaves] == [failure]


def _pair_world(hosted, seed=1):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    pair = world.run_process(
        deploy_ftm_pair(world, "pbr", ["alpha", "beta"]), name="deploy"
    )
    repository = Repository()
    if hosted:
        repository.attach(world)
    return world, pair, AdaptationEngine(world, pair, repository)


def test_an_exhausted_fetch_leaves_through_its_boundary():
    world, pair, engine = _pair_world(hosted=True)
    stream = []
    world.trace.listen(stream.append)
    world.faults.arm_transition_fault(
        "fetch", "omission", node="beta", probability=1.0
    )
    report = world.run_process(engine.transition("lfr"), name="transition")
    beta = next(r for r in report.replicas if r.node == "beta")
    assert "unanswered" in beta.error
    assert [(b.phase, b.point, b.failed) for b in stream
            if b.node.name == "beta"] == [
        ("fetch", "enter", None), ("fetch", "leave", "PackageFetchFailed"),
    ]
    # the leave closed the window the enter opened
    assert world.network.link("beta", "repository").loss == 0.0
    assert world.network.link("repository", "beta").loss == 0.0


def test_close_drops_the_streams_listeners():
    world, pair, engine = _pair_world(hosted=False)
    world.trace.listen(lambda boundary: None)
    world.faults.arm_transition_fault("fetch", "slow")  # the injector listens too
    assert len(world.trace._listeners) == 2
    world.close()
    assert world.trace._listeners == []
