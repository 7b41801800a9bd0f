"""The paper's quantitative claims, checked at the evaluation's settings.

``repro reproduce`` runs every artifact's shape checks at ``--runs 1``;
these tests pin the numbers behind them at the settings EXPERIMENTS.md
reports: Table 3's deployment and transition bands and their ratio,
Figure 9's phase shares, every Table 2 row, the Sec. 6.2 agility
conclusions, and three ablations — per-FTM request latency, the ratio
under a slower or faster platform, and quiescence under client load.
"""

from argparse import Namespace
from dataclasses import fields, replace

from repro import exp
from repro.app.workloads import constant
from repro.core import AdaptationEngine
from repro.eval import artifact, campaign, figure9, table3
from repro.eval.table2 import PAPER_TABLE2
from repro.ftm import FTM_NAMES, Client, deploy_ftm_pair
from repro.kernel import CostModel, Timeout, World

#: Seeded repetitions per Table 3 / Figure 9 cell (the paper averaged 100).
RUNS = 3


def _artifact(name, **options):
    """Run one entry of the artifact table, serially, at the default seed."""
    entry = artifact(name)
    return entry.run(entry.spec(Namespace(seed=0, **options)), jobs=1)


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


# -- Table 3 and Figure 9 ------------------------------------------------------------


def test_table3_stays_in_the_paper_bands():
    data = table3.from_results(exp.run(table3.spec(runs=RUNS), jobs=1).results)
    assert table3.shape_checks(data) == []
    for ftm in FTM_NAMES:
        assert 3_300 <= data["deployment"][ftm] <= 4_300, ftm
    off_diagonal = {pair: ms for pair, ms in data["transitions"].items()
                    if pair[0] != pair[1]}
    for pair, ms in off_diagonal.items():
        assert 600 <= ms <= 1_500, (pair, ms)
    # the central result: a transition is ~3.8x cheaper than a deployment
    ratio = _mean(data["deployment"].values()) / _mean(off_diagonal.values())
    assert 2.5 <= ratio <= 6.0


def test_figure9_phase_shares_track_the_paper():
    data = figure9.from_results(exp.run(figure9.spec(runs=RUNS), jobs=1).results)
    assert figure9.shape_checks(data) == []
    for transition, paper_shares in figure9.PAPER_FIGURE9.items():
        ours = data["transitions"][transition]["shares"]
        for phase, paper_share in paper_shares.items():
            assert abs(ours[phase] - paper_share) <= 0.10, (transition, phase)


# -- Table 2 ---------------------------------------------------------------------------


def _scheme_row(scheme, role):
    if role in scheme:
        return scheme[role]
    # A&Duplex is represented by its primary role
    if role == "A&Duplex":
        for key, steps in scheme.items():
            if key.startswith("A&") and "Primary" in key:
                return steps
    return None


def _step_compatible(paper_step, our_step):
    return paper_step.split(" (")[0].lower() in our_step.lower()


def test_table2_matches_every_paper_row():
    data = _artifact("table2").data
    for role, before, proceed, after in PAPER_TABLE2:
        ours = _scheme_row(data["scheme"], role)
        assert ours is not None, role
        assert before.lower() in ours["before"].lower(), role
        assert _step_compatible(proceed, ours["proceed"]), role
        assert _step_compatible(after, ours["after"]), role
    # the component mapping covers all six FTMs with three slots each
    assert len(data["components"]) == 6
    for slots in data["components"].values():
        assert set(slots) == {"syncBefore", "proceed", "syncAfter"}


# -- Sec. 6.2 and Sec. 5.3 -------------------------------------------------------------


def test_agility_conclusions():
    outcome = _artifact("agility")
    assert outcome.problems == []
    data = outcome.data
    agile, pre = data["agile"], data["preprogrammed"]
    # agility costs switch latency, within the related-work spread the
    # paper discusses (preprogrammed 4.5-390 ms, agile ~1 s) ...
    assert pre["switch_ms"] < 400
    assert 300 <= agile["switch_ms"] <= 3_000
    # ... preprogramming costs resident dead code ...
    assert pre["resident_variants"] > agile["resident_variants"]
    # ... and only the agile system integrates an FTM unknown at design time
    assert agile["field_update_possible"]
    assert not pre["field_update_possible"]


def test_consistency_holds_over_five_runs():
    assert _artifact("consistency", runs=5).problems == []


def test_ten_mission_campaign_is_clean_and_recovers_every_crash():
    result = exp.run(campaign.sharded_spec(missions=10), jobs=1)
    data = campaign.from_shard_results(result.results)
    assert campaign.shard_shape_checks(data) == []
    assert data["clean_missions"] == 10
    assert data["total_reintegrations"] >= 10


# -- ablations ---------------------------------------------------------------------------


def _mean_latency_ms(ftm):
    world = World(seed=7000)
    world.add_nodes(["alpha", "beta", "client"])

    def do():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"],
                                          assertion="counter-range")
        client = Client(world, world.cluster.node("client"), "c1",
                        pair.node_names())
        yield from constant(client, count=20, period_ms=50.0)
        return sum(client.latencies_ms) / len(client.latencies_ms)

    try:
        return world.run_process(do(), name="latency")
    finally:
        world.close()


def test_request_latency_orders_the_ftms():
    latency = {ftm: _mean_latency_ms(ftm) for ftm in FTM_NAMES}
    # TR variants pay the redundant execution (~2x the processing time)
    assert latency["pbr+tr"] > latency["pbr"] * 1.5
    assert latency["lfr+tr"] > latency["lfr"] * 1.5
    # assertion checking on the fault-free path is nearly free
    assert latency["a+pbr"] < latency["pbr"] * 1.3
    # passive and active replication have comparable fault-free latency
    assert abs(latency["pbr"] - latency["lfr"]) < latency["pbr"] * 0.5


def _deploy_over_transition(costs):
    world = World(seed=77, costs=costs)
    world.add_nodes(["alpha", "beta"])

    def do():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        deploy_ms = world.now
        report = yield from AdaptationEngine(world, pair).transition("lfr")
        return deploy_ms / report.per_replica_ms

    try:
        return world.run_process(do(), name="ratio")
    finally:
        world.close()


def _platform_at(speed):
    """The default calibration with every middleware, script and package
    time multiplied by ``speed``; links, energy and noise unchanged."""
    costs = CostModel()
    timed = {
        field.name for field in fields(costs)
        if field.name.startswith(("runtime_", "composite_", "component_",
                                  "wire_", "script_", "package_"))
        and isinstance(getattr(costs, field.name), float)
    }
    # the prefix rule must pick exactly the platform's time costs
    assert timed == {
        "runtime_boot", "composite_create", "component_install",
        "component_attach", "component_start", "component_stop",
        "component_remove", "wire_connect", "wire_disconnect",
        "script_parse", "script_step", "script_commit", "script_rollback",
        "package_fetch", "package_serve_chunk", "package_checksum",
        "package_unpack_base", "package_unpack_component",
        "package_remove_base", "package_remove_component",
    }
    return replace(costs, **{name: getattr(costs, name) * speed
                             for name in timed})


def test_platform_speed_keeps_the_deployment_transition_ratio():
    ratios = [_deploy_over_transition(_platform_at(scale))
              for scale in (0.5, 1.0, 2.0)]
    for ratio in ratios:
        assert 2.5 <= ratio <= 6.0
    # scale-invariant within jitter: the advantage is structural
    assert max(ratios) - min(ratios) < 1.0


def test_quiescence_under_load_loses_and_doubles_nothing():
    world = World(seed=78)
    world.add_nodes(["alpha", "beta", "client"])
    served = []

    def scenario():
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        client = Client(world, world.cluster.node("client"), "c1",
                        pair.node_names(), timeout=5_000.0)

        def load():
            for _ in range(40):
                served.append((yield from client.request(("add", 1))))
                yield Timeout(40.0)

        loader = world.sim.spawn(load())
        yield Timeout(300.0)
        yield from AdaptationEngine(world, pair).transition("lfr")
        yield loader
        return sum(r.composite.buffered_while_closed for r in pair.replicas)

    try:
        buffered = world.run_process(scenario(), name="scenario")
    finally:
        world.close()
    assert len(served) == 40
    assert all(reply.ok for reply in served)
    assert served[-1].value == 40  # nothing lost, nothing doubled
    assert buffered >= 1  # the gate actually held traffic back

