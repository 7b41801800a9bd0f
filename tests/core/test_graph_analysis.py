"""Structural checks of the Figure 8 scenario graph, with networkx.

The derived graph is a control structure: the Resilience Manager walks
it for the system's whole service life.  Beyond the paper's oscillation
argument, three structural properties matter operationally:

* **no trap states** — from every state some event sequence leads back to
  the preferred operating point, ``pbr (determinism)``;
* **mandatory-only safety** — the subgraph of *automatic* (mandatory)
  transitions is acyclic, so the automatic loop can never cycle without
  a System Manager decision;
* **coverage** — every state is reachable from the initial one.
"""

import networkx as nx

from repro.core.transition_graph import build_scenario_graph

HOME = "pbr (determinism)"

#: Entering it is forced by an external A/FT event and leaving it is
#: mandatory by definition, so a cycle through it needs alternating
#: *environment* changes, not controller decisions.
SINK = "no-generic-solution"


def scenario_digraph():
    """The Figure 8 graph as a networkx MultiDiGraph."""
    _states, edges = build_scenario_graph()
    graph = nx.MultiDiGraph()
    for edge in edges:
        graph.add_edge(edge.source, edge.target, event=edge.event,
                       kind=edge.kind)
    return graph


def test_graph_has_expected_shape():
    graph = scenario_digraph()
    assert graph.number_of_nodes() == 8
    assert graph.number_of_edges() > 30


def test_no_trap_states():
    """From every state, some event path returns to PBR (determinism)."""
    graph = scenario_digraph()
    assert [state for state in graph.nodes
            if not nx.has_path(graph, state, HOME)] == []


def test_mandatory_subgraph_has_no_cycles():
    """The automatic loop can never cycle without a manager decision."""
    graph = scenario_digraph()
    mandatory = nx.DiGraph()
    mandatory.add_nodes_from(graph.nodes)
    mandatory.add_edges_from(
        (source, target) for source, target, kind in graph.edges(data="kind")
        if kind == "mandatory" and SINK not in (source, target))
    assert list(nx.simple_cycles(mandatory)) == []


def test_every_state_reachable_from_initial():
    graph = scenario_digraph()
    reachable = nx.descendants(graph, HOME) | {HOME}
    assert len(reachable) == 8  # including the no-generic-solution sink


def test_eccentricity_is_small():
    """Any configuration is at most a few parameter events away."""
    distances = nx.single_source_shortest_path_length(scenario_digraph(), HOME)
    assert max(distances.values()) <= 3
    assert distances["a+duplex"] == 1  # one critical-phase-start away
