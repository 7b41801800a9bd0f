"""Benchmark: the kernel's two lanes.

Two cases, both written into ``BENCH_kernel.json`` (uploaded as a CI
artifact next to ``BENCH_runner.json``):

* **micro** — a zero-delay resume chain and a timed-event chain driven
  through ``Simulator`` with the ready deque on and off (events/sec each
  way: the zero-delay pair is the number that justifies the deque), a
  mass-timer workload (20k concurrent periodic timers on the one heap),
  plus an idle deployed pair reporting host microseconds per heartbeat
  (``us_per_beat``: the beat clock's replay cost; the tree with two
  kernel events per beat measured ~3.1 on the bench host);
* **campaign** — seeded missions of the statistical fault-injection
  campaign: single-heap reference vs ready deque solo, and the shipped
  kernel through the experiment runner (``exp.run(spec, jobs=1)``).
  Before any number is reported, one seeded mission is asserted
  trace-digest-identical with ``fast_path`` on and off — the deque is
  an optimisation, never a semantics change (the beat clock has no
  switch to flip: ``tests/kernel/test_beat_clock.py`` pins it to golden
  fingerprints and a plain-event reference detector instead).

The campaign case carries a **soft regression guard**: if a previous
``BENCH_kernel.json`` exists, a >20% drop in serial missions/sec prints
a loud warning (never a failure — these are wall-clock numbers on
shared hardware).  The baseline constant is the PR 3 checkout running
the same sharded campaign end-to-end (``exp.run(spec, jobs=1)``, its
only mode), measured interleaved run-for-run against a later tree on
the same host: best-of-8 gave 49.78 missions/sec.  The recorded
``speedup_vs_pr3_baseline`` is computed against that constant.

Numbers are best-of-``BENCH_KERNEL_REPS`` (default 3) over
``BENCH_KERNEL_MISSIONS`` missions (default 64) — override via the
environment for longer, steadier runs.
"""

import json
import os
import time
from pathlib import Path

from conftest import run_once

from repro import exp
from repro.eval import campaign
from repro.ftm import deploy_ftm_pair
from repro.kernel import Simulator, World, run_solo

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Missions/sec of the PR 3 checkout running the sharded campaign
#: end-to-end through its own ``exp.run(spec, jobs=1)`` (single heap),
#: measured interleaved against a later tree on the same host — the
#: denominator of the recorded speedup.
PR3_BASELINE_MISSIONS_PER_SEC = 49.78

#: Soft guard: warn when serial throughput drops below this
#: fraction of the previously recorded number.
SOFT_GUARD_FRACTION = 0.8

MICRO_EVENTS = 50_000
MASS_TIMERS = 20_000
MASS_TIMER_EVENTS = 200_000
MISSIONS = int(os.environ.get("BENCH_KERNEL_MISSIONS", "64"))
REQUESTS = 30
REPS = max(1, int(os.environ.get("BENCH_KERNEL_REPS", "3")))


def _zero_delay_chain(fast_path):
    """Events/sec through a self-reposting zero-delay callback chain."""
    sim = Simulator(fast_path=fast_path)
    remaining = [MICRO_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.post(tick)

    sim.post(tick)
    started = time.perf_counter()
    sim.run()
    return MICRO_EVENTS / max(time.perf_counter() - started, 1e-9)


def _timed_chain(fast_path):
    """Events/sec through a self-rescheduling timed callback chain."""
    sim = Simulator(fast_path=fast_path)
    remaining = [MICRO_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.call_later(1.0, tick)

    sim.call_later(1.0, tick)
    started = time.perf_counter()
    sim.run()
    return MICRO_EVENTS / max(time.perf_counter() - started, 1e-9)


def _mass_timer_chain():
    """Events/sec with 20k concurrent periodic timers on the heap.

    Missions keep a handful of timers pending; this case measures a
    standing mass of long-period timers (fleet-scale tickers), the
    deepest heap any workload here builds.
    """
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
    return MASS_TIMER_EVENTS / max(time.perf_counter() - started, 1e-9)


def _idle_pair_us_per_beat(simulated_ms=200_000.0):
    """Host microseconds per heartbeat of an idle deployed pair.

    Nothing but the failure detectors runs: two beat streams, two
    watchdogs.  The whole horizon is one replay window of the beat
    clock, so this is its floor cost per beat.
    """
    world = World(seed=3)
    world.add_nodes(["alpha", "beta", "client"])
    world.run_process(deploy_ftm_pair(world, "pbr", ["alpha", "beta"]))
    sent = world.network.messages_sent
    started = time.perf_counter()
    world.run(until=world.now + simulated_ms)
    elapsed = time.perf_counter() - started
    return elapsed / (world.network.messages_sent - sent) * 1e6


def _kernel_parity_digests():
    """One seeded mission's trace digest per ``fast_path`` setting.

    The byte-identity gate for the ready deque: it must replay the
    single-heap reference bit for bit — same event order, same RNG
    draws, same fault drops — so both digests must be one digest.  The
    digest is taken before the world closes (``close()`` empties the
    trace).
    """
    digests = {}
    shipped_fast = Simulator.DEFAULT_FAST_PATH
    try:
        for fast in (True, False):
            Simulator.DEFAULT_FAST_PATH = fast
            task = campaign.mission_task(5003, requests=REQUESTS)
            task.world.sim.advance(task.process.terminated)
            task.result()
            digests["fast" if fast else "legacy"] = task.world.trace.digest()
            assert len(task.world.trace.records) > 100
            task.world.close()
    finally:
        Simulator.DEFAULT_FAST_PATH = shipped_fast
    return digests


def _campaign_spec():
    return campaign.sharded_spec(
        missions=MISSIONS, base_seed=5000, requests=REQUESTS,
        cell_size=max(1, MISSIONS // 4),
    )


def _solo_missions_per_sec():
    started = time.perf_counter()
    for seed in range(5000, 5000 + MISSIONS):
        run_solo(campaign.mission_task(seed, requests=REQUESTS))
    return MISSIONS / max(time.perf_counter() - started, 1e-9)


def _serial_run():
    """The campaign through the runner: ``exp.run(spec, jobs=1)``."""
    spec = _campaign_spec()
    started = time.perf_counter()
    result = exp.run(spec, jobs=1)
    return result, MISSIONS / max(time.perf_counter() - started, 1e-9)


def _best(fn, reps=REPS):
    return max(fn() for _ in range(reps))


def _soft_guard(current):
    """Warn (never fail) when throughput regressed >20% vs the record."""
    if not BENCH_PATH.exists():
        return
    try:
        previous = json.loads(BENCH_PATH.read_text())
        recorded = previous["campaign"]["serial_missions_per_sec"]
    except (ValueError, KeyError, TypeError):
        return
    if current < SOFT_GUARD_FRACTION * recorded:
        print(
            f"\nWARNING: kernel throughput regressed "
            f"{100 * (1 - current / recorded):.0f}%: "
            f"{current:.1f} missions/s vs recorded {recorded:.1f} "
            f"(soft guard at {SOFT_GUARD_FRACTION:.0%}; wall-clock "
            f"numbers on shared hardware — investigate before trusting)"
        )


def test_bench_kernel_fast_path(benchmark):
    # -- micro: the two lanes, fast vs legacy ------------------------------
    micro = {
        "zero_delay_fast_events_per_sec": _best(
            lambda: _zero_delay_chain(True)),
        "zero_delay_legacy_events_per_sec": _best(
            lambda: _zero_delay_chain(False)),
        "timed_fast_events_per_sec": _best(lambda: _timed_chain(True)),
        "timed_legacy_events_per_sec": _best(lambda: _timed_chain(False)),
        "mass_timer_events_per_sec": _best(_mass_timer_chain),
        "us_per_beat": min(_idle_pair_us_per_beat() for _ in range(REPS)),
    }

    # -- byte-identity: fast vs legacy kernel ------------------------------
    parity_digests = _kernel_parity_digests()
    assert len(set(parity_digests.values())) == 1, (
        f"trace digests diverge across kernels: {parity_digests}"
    )

    # -- campaign: legacy vs fast solo, fast through the runner ------------
    # Configurations are interleaved within each round (not phase-by-
    # phase): shared-hardware load drifts on a minutes scale, large
    # enough to invert phase-sequential comparisons, so only back-to-back
    # runs compare like with like.  Best-of-REPS each.
    assert Simulator.DEFAULT_FAST_PATH  # the shipped default

    def _legacy_solo_missions_per_sec():
        Simulator.DEFAULT_FAST_PATH = False
        try:
            return _solo_missions_per_sec()
        finally:
            Simulator.DEFAULT_FAST_PATH = True

    legacy_solo = _legacy_solo_missions_per_sec()
    fast_solo = _solo_missions_per_sec()
    result, serial = run_once(benchmark, _serial_run)
    events_by_source = dict(result.events_by_source)
    beats = {"beats_replayed": result.beats_replayed,
             "beats_materialised": result.beats_materialised}

    for _ in range(REPS):
        legacy_solo = max(legacy_solo, _legacy_solo_missions_per_sec())
        fast_solo = max(fast_solo, _solo_missions_per_sec())
        serial = max(serial, _serial_run()[1])

    _soft_guard(serial)
    speedup = serial / PR3_BASELINE_MISSIONS_PER_SEC
    report = {
        "generated_by": "benchmarks/test_bench_kernel.py",
        "note": (
            f"best-of-{REPS}; missions/sec over {MISSIONS} seeded campaign "
            "missions, single process; micro numbers are kernel events/sec"
        ),
        "micro": {k: round(v, 3 if k == "us_per_beat" else 1)
                  for k, v in micro.items()},
        "parity": {
            "byte_identical": True,
            "combos": sorted(parity_digests),
            "trace_digest": next(iter(parity_digests.values())),
        },
        "events_by_source": events_by_source,
        **beats,
        "campaign": {
            "missions": MISSIONS,
            "requests": REQUESTS,
            "pr3_baseline_missions_per_sec": PR3_BASELINE_MISSIONS_PER_SEC,
            "legacy_solo_missions_per_sec": round(legacy_solo, 2),
            "fast_solo_missions_per_sec": round(fast_solo, 2),
            "serial_missions_per_sec": round(serial, 2),
            "speedup_vs_pr3_baseline": round(speedup, 2),
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nkernel: zero-delay {micro['zero_delay_fast_events_per_sec']:,.0f}"
        f" ev/s fast vs {micro['zero_delay_legacy_events_per_sec']:,.0f}"
        f" legacy; timed {micro['timed_fast_events_per_sec']:,.0f} vs "
        f"{micro['timed_legacy_events_per_sec']:,.0f}; mass-timer "
        f"{micro['mass_timer_events_per_sec']:,.0f}; idle pair "
        f"{micro['us_per_beat']:.2f} us/beat\n"
        f"parity: fast|legacy trace digest "
        f"{report['parity']['trace_digest']}; beats replayed "
        f"{beats['beats_replayed']}, materialised "
        f"{beats['beats_materialised']}\n"
        f"campaign ({MISSIONS} missions): legacy {legacy_solo:.1f}/s, "
        f"fast {fast_solo:.1f}/s solo; serial {serial:.1f}/s -> "
        f"{speedup:.2f}x vs PR3 baseline "
        f"({PR3_BASELINE_MISSIONS_PER_SEC}/s)\n"
        f"wrote {BENCH_PATH.name}"
    )
