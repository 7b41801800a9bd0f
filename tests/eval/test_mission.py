"""The protected-pair mission builder (`repro.eval.mission.pair_task`)."""

from repro.eval.mission import pair_task, run_solo
from repro.kernel import Timeout


def test_pair_task_builds_the_platform_then_hands_over_to_run():
    seen = {}

    def run(world, pair, client):
        seen.update(
            nodes=sorted(world.cluster.nodes),
            pair=(pair.ftm, pair.node_names(), pair.assertion,
                  pair.recovery_enabled, pair.restart_delay),
            client=(client.name, client.node.name, client.targets,
                    client.timeout, client.max_attempts),
        )
        yield Timeout(1.0)
        return "done"

    task = pair_task(7, "lfr", run, assertion="counter-range",
                     client="c-x", timeout=123.0, max_attempts=3)
    assert not task.done and not seen  # built, not run
    assert run_solo(task) == "done"
    assert seen == {
        "nodes": ["alpha", "beta", "client"],
        "pair": ("lfr", ["alpha", "beta"], "counter-range", True, 300.0),
        "client": ("c-x", "client", ["alpha", "beta"], 123.0, 3),
    }
