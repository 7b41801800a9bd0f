"""Micro-drivers: one layer's public API, called directly with typical input.

Each driver returns one host-time sample; :func:`run_all` repeats every
driver for its share of the budget and reports the median.  The drivers
are the same on every workload — they describe the layer, not the
traffic — and nothing here reaches below a module's public names.
"""

from __future__ import annotations

import json
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

CHAIN_EVENTS = 50_000
MASS_TIMERS = 20_000
MASS_TIMER_EVENTS = 100_000
CALLS = 5_000


def _zero_delay_events_per_s() -> float:
    """Events/s through a self-reposting zero-delay callback chain."""
    from repro.kernel import Simulator

    sim = Simulator()
    remaining = [CHAIN_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.post(tick)

    sim.post(tick)
    started = time.perf_counter()
    sim.run()
    return CHAIN_EVENTS / (time.perf_counter() - started)


def _timed_events_per_s() -> float:
    """Events/s through a self-rescheduling timed callback chain."""
    from repro.kernel import Simulator

    sim = Simulator()
    remaining = [CHAIN_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_later(1.0, tick)

    sim.call_later(1.0, tick)
    started = time.perf_counter()
    sim.run()
    return CHAIN_EVENTS / (time.perf_counter() - started)


def _mass_timer_events_per_s() -> float:
    """Events/s with 20k concurrent periodic timers (the timer-wheel regime)."""
    from repro.kernel import Simulator

    sim = Simulator(seed=42)
    rng = sim.random.substream("bench")
    remaining = [MASS_TIMER_EVENTS]

    def make(period):
        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_later(period, tick)
        return tick

    for _ in range(MASS_TIMERS):
        period = 40.0 + rng.random() * 260.0
        sim.call_later(rng.random() * period, make(period))
    started = time.perf_counter()
    sim.run()
    return MASS_TIMER_EVENTS / (time.perf_counter() - started)


def _fresh_build_us() -> float:
    """Host time to build the three-node campaign platform from scratch."""
    from repro.kernel import World

    reps = 50
    started = time.perf_counter()
    for seed in range(reps):
        World(seed=seed).add_nodes(["alpha", "beta", "client"])
    return (time.perf_counter() - started) / reps * 1e6


def _deploy_and_transition_ms() -> Dict[str, float]:
    """Host time of one ``deploy_ftm_pair`` and one ``transition`` (pbr -> lfr).

    The clock is read inside the driving process around each ``yield
    from``, so both numbers include the simulator events the step caused.
    """
    from repro.core import AdaptationEngine
    from repro.ftm import deploy_ftm_pair
    from repro.kernel import World

    world = World(seed=7)
    marks: List[float] = []

    def scenario():
        marks.append(time.perf_counter())
        pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
        marks.append(time.perf_counter())
        engine = AdaptationEngine(world, pair)
        yield from engine.transition("lfr")
        marks.append(time.perf_counter())

    world.run_scenario(scenario(), nodes=("alpha", "beta"))
    return {"ftm.deploy_ms": (marks[1] - marks[0]) * 1e3,
            "core.transition_ms": (marks[2] - marks[1]) * 1e3}


def _script_us() -> Dict[str, float]:
    """Parse and execute the generated pbr<->lfr scripts on a deployed pair."""
    from repro.core import Repository
    from repro.ftm import deploy_ftm_pair
    from repro.kernel import World
    from repro.script import ScriptInterpreter, parse, render

    world = World(seed=11)
    world.add_nodes(["alpha", "beta"])
    pair = world.run_process(deploy_ftm_pair(world, "pbr", ["alpha", "beta"]))
    repository = Repository()
    there = repository.transition_package("pbr", "lfr", role="master", peer="beta")
    back = repository.transition_package("lfr", "pbr", role="master", peer="beta")
    text = render(there.script)
    reps = 20
    started = time.perf_counter()
    for _ in range(reps):
        parse(text)
    parse_us = (time.perf_counter() - started) / reps * 1e6

    interpreter = ScriptInterpreter(pair.replicas[0].runtime)
    started = time.perf_counter()
    for _ in range(reps // 2):
        world.run_process(interpreter.execute(there.script, there.spec_index()))
        world.run_process(interpreter.execute(back.script, back.spec_index()))
    execute_us = (time.perf_counter() - started) / reps * 1e6
    if interpreter.rolled_back_scripts:
        raise RuntimeError("micro-driver script rolled back")
    return {"script.parse_us": parse_us, "script.execute_us": execute_us}


def _component_call_ns() -> float:
    """Host time of one ``call`` through a wired reference (echo via forwarder)."""
    from repro.components import (
        AssemblySpec, ComponentImpl, ComponentSpec, Multiplicity, PromotionSpec,
        WireSpec, make_runtime,
    )
    from repro.kernel import World

    class Echo(ComponentImpl):
        SERVICES = {"io": ("echo",)}

        def echo(self, value):
            return value

    class Forwarder(ComponentImpl):
        SERVICES = {"io": ("forward",)}
        REFERENCES = {"next": Multiplicity.ONE}

        def forward(self, count):
            reference = self.ref("next")
            for index in range(count):
                yield from reference.invoke("echo", index)
            return count

    world = World(seed=3)
    runtime = make_runtime(world, world.add_node("alpha"))
    assembly = AssemblySpec(
        name="lab",
        components=(ComponentSpec.make("echo", Echo),
                    ComponentSpec.make("forwarder", Forwarder)),
        wires=(WireSpec("forwarder", "next", "echo", "io"),),
        promotions=(PromotionSpec("front", "forwarder", "io"),),
    )
    composite = world.run_process(runtime.deploy(assembly))
    started = time.perf_counter()
    world.run_process(composite.call("front", "forward", CALLS))
    return (time.perf_counter() - started) / CALLS * 1e9


def _wire_roundtrip_us() -> float:
    """One dispatch frame out and one digest ack back over a socketpair."""
    from repro.exp.distributed import DIGEST_MAGIC, recv_msg, send_msg

    cells = {"type": "cells", "id": 1, "cells": [
        {"key": f"shard-{i:05d}", "params": {"requests": 30},
         "seeds": list(range(5000, 5050)), "h": "0123456789ab"} for i in range(2)]}
    ack = {"type": "digest", "id": 1, "cells": [
        [f"shard-{i:05d}", "0123456789ab", "f" * 32, True] for i in range(2)]}
    left, right = socket.socketpair()
    reps = 200
    try:
        started = time.perf_counter()
        for _ in range(reps):
            send_msg(left, cells)
            recv_msg(right)
            send_msg(right, ack, magic=DIGEST_MAGIC)
            recv_msg(left)
        return (time.perf_counter() - started) / reps * 1e6
    finally:
        left.close()
        right.close()


def _pool_spawn_ms(env: Dict[str, str]) -> float:
    """Cold start of the 2-process local pool up to its first answered task.

    Measured inside an ``entry.py`` subprocess (the harness never forks
    Python children); the value is the median of that child's samples.
    """
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "entry.py"),
         "pool-spawn", "--reps", "5"],
        env=env, check=True, capture_output=True, text=True)
    return statistics.median(json.loads(out.stdout))


def _table3_err_pct() -> float:
    """Mean absolute error of simulated Table 3 vs the paper's, in percent.

    Simulated time, so the value is exact and must not move for a change
    that only makes the simulator faster.
    """
    from repro import exp
    from repro.eval import table3

    result = exp.run(table3.spec(runs=1, base_seed=1000), jobs=1, backend="serial")
    data = table3.from_results(result.results)
    errors = []
    for (source, target), paper in table3.PAPER_TABLE3.items():
        ours = (data["deployment"][target] if source == "deploy"
                else data["transitions"][(source, target)])
        errors.append(abs(ours - paper) / paper * 100.0)
    return statistics.mean(errors)


def _cli_startup_ms(env: Dict[str, str]) -> float:
    """Wall of ``python -m repro info`` — interpreter, imports, argparse."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro", "info"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - started) * 1e3


def _repeat(driver: Callable[[], Any], budget_s: float) -> List[Any]:
    """Call ``driver`` until its budget is spent (at least once)."""
    samples = [driver()]
    started = time.perf_counter()
    while time.perf_counter() - started < budget_s - 1e-9 and len(samples) < 50:
        samples.append(driver())
    return samples


def run_all(budget_s: float, env: Dict[str, str],
            worker_start_ms: Callable[[], float]) -> Dict[str, float]:
    """Every micro-driver's median; ``budget_s`` is shared equally.

    ``worker_start_ms`` is the harness's own worker start-up (it owns the
    processes, so it also stops them).
    """
    drivers: Dict[str, Callable[[], Any]] = {
        "cli.startup_ms": lambda: _cli_startup_ms(env),
        "exp.pool.spawn_ms": lambda: _pool_spawn_ms(env),
        "exp.wire.roundtrip_us": _wire_roundtrip_us,
        "exp.distributed.worker_start_ms": worker_start_ms,
        "kernel.sim.zero_delay_events_per_s": _zero_delay_events_per_s,
        "kernel.sim.timed_events_per_s": _timed_events_per_s,
        "kernel.sim.mass_timer_events_per_s": _mass_timer_events_per_s,
        "kernel.world.fresh_build_us": _fresh_build_us,
        "deploy+transition": _deploy_and_transition_ms,
        "script": _script_us,
        "components.call_ns": _component_call_ns,
        "eval.table3_err_pct": _table3_err_pct,
    }
    share = budget_s / len(drivers)
    out: Dict[str, float] = {}
    for name, driver in drivers.items():
        samples = _repeat(driver, share)
        if isinstance(samples[0], dict):
            for key in samples[0]:
                out[key] = statistics.median(s[key] for s in samples)
        else:
            out[name] = statistics.median(samples)
    return out
