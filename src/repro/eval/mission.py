"""The protected-pair mission: the platform every dynamic claim runs on.

An FTM pair on hosts ``alpha``/``beta`` with recovery, plus a client on
host ``client``.  :func:`pair_task` is the one place that builds it:
``campaign``, ``gray``, ``transition_matrix``, ``consistency_eval`` and
``repro demo`` hand it only their faults, what adapts and which outcome
they read.  Both functions import the simulator when called, so
replaying a stored result loads none of it; the digested ``_trial``
functions call this module's ``run_solo``.
"""

def pair_task(seed, ftm, run, *, assertion="always-true", client="c1",
              timeout=4_000.0, max_attempts=10):
    """One protected-pair mission as an unrun :class:`~repro.kernel.WorldTask`.

    Deploys ``ftm`` (checked by ``assertion``), enables recovery at
    300 ms and builds the client named ``client``, then hands over to
    the generator ``run(world, pair, client)``, whose return value is
    the task's result.
    """
    from repro.ftm import Client, deploy_ftm_pair
    from repro.kernel import World, WorldTask

    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])

    def mission():
        pair = yield from deploy_ftm_pair(world, ftm, ["alpha", "beta"], assertion=assertion)
        pair.enable_recovery(restart_delay=300.0)
        user = Client(world, world.cluster.node("client"), client, pair.node_names(),
                      timeout=timeout, max_attempts=max_attempts)
        return (yield from run(world, pair, user))

    return WorldTask(world, mission(), name="mission")


def run_solo(task):
    """:func:`repro.kernel.run_solo`, imported when a mission runs."""
    from repro.kernel import run_solo as kernel_run_solo

    return kernel_run_solo(task)
