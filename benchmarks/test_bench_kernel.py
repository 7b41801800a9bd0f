"""Benchmark: the kernel fast path and the in-process world co-scheduler.

Two cases, both written into ``BENCH_kernel.json`` (uploaded as a CI
artifact next to ``BENCH_runner.json``):

* **micro** — a zero-delay resume chain, a timed-event chain and a
  mass-timer workload (20k concurrent periodic timers — the regime where
  the timer wheel engages) driven through ``Simulator`` with the fast
  path on and off, reporting events/sec for each lane, plus an idle
  deployed pair reporting host microseconds per heartbeat
  (``us_per_beat``: the beat clock's replay cost; the tree with two
  kernel events per beat measured ~3.1 on the bench host);
* **campaign** — seeded missions of the statistical fault-injection
  campaign, measured along two axes: legacy kernel vs fast kernel, and
  fresh-built worlds vs arena-reused worlds (``REPRO_WORLD_REUSE``),
  solo and through the experiment runner at every co-schedule grid size
  in ``COSCHEDULE_GRID`` — the configuration ``repro campaign
  --coschedule`` ships.  Before any number is reported, every reuse and
  co-scheduled result is asserted byte-identical to the fresh serial
  reference, and one seeded mission is asserted trace-digest-identical
  on the fast and the legacy kernel — the lanes and the timer wheel are
  optimisations, never semantics changes (the beat clock has no switch
  to flip: ``tests/kernel/test_beat_clock.py`` pins it to golden
  fingerprints and a plain-event reference detector instead).
  Co-scheduled throughput is compared against the serial
  lane with *paired* back-to-back runs (the ratio of adjacent runs
  cancels shared-hardware drift that inverts phase-sequential
  comparisons): at every grid size the best pair must reach >= 1.0x and
  the median pair must clear the non-inferiority floor — the pool never
  costs real throughput.

The campaign case carries a **soft regression guard**: if a previous
``BENCH_kernel.json`` exists, a >20% drop in co-scheduled missions/sec
prints a loud warning (never a failure — these are wall-clock numbers on
shared hardware).  The baseline constant is the PR 3 checkout running
the same sharded campaign end-to-end (``exp.run(spec, jobs=1)``, its
only mode), measured interleaved run-for-run against this tree on the
same host: best-of-8 gave 49.78 missions/sec.  The recorded
``speedup_vs_pr3_baseline`` is computed against that constant.

Numbers are best-of-``BENCH_KERNEL_REPS`` (default 3) over
``BENCH_KERNEL_MISSIONS`` missions (default 64) — override via the
environment for longer, steadier runs.
"""

import json
import os
import statistics
import time
from pathlib import Path

from conftest import run_once

from repro import exp
from repro.eval import campaign
from repro.ftm import deploy_ftm_pair
from repro.kernel import (
    Simulator,
    World,
    clear_world_arena,
    release_world,
    run_solo,
    set_world_reuse,
    world_arena_stats,
    world_reuse_enabled,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Missions/sec of the PR 3 checkout running the sharded campaign
#: end-to-end through its own ``exp.run(spec, jobs=1)`` (single heap, no
#: co-scheduling), measured interleaved against this tree on the same
#: host — the denominator of the recorded speedup.
PR3_BASELINE_MISSIONS_PER_SEC = 49.78

#: Missions/sec of the immediately preceding checkout (PR 9, before the
#: timer wheel + heartbeat express lane) on the reuse-coscheduled co=8
#: lane, measured interleaved run-for-run against this tree on the same
#: host (best-of-8; this tree measured 105.0 in the same session).  The
#: paired per-round ratios ranged 0.84-1.22 with median 1.06 — the
#: fast-lane win at mission scale is real but modest, and smaller than
#: one round's shared-hardware noise; absolute numbers for *identical*
#: code swing +-20% on this host, so only interleaved pairs are valid.
PREV_TREE_MISSIONS_PER_SEC = 95.45
PREV_TREE_PAIRED_MEDIAN_RATIO = 1.06

#: Soft guard: warn when co-scheduled throughput drops below this
#: fraction of the previously recorded number.
SOFT_GUARD_FRACTION = 0.8

MICRO_EVENTS = 50_000
MASS_TIMERS = 20_000
MASS_TIMER_EVENTS = 200_000
MISSIONS = int(os.environ.get("BENCH_KERNEL_MISSIONS", "64"))
REQUESTS = 30
COSCHEDULE = 8
COSCHEDULE_GRID = (2, 4, 8)
REPS = max(1, int(os.environ.get("BENCH_KERNEL_REPS", "3")))

#: Hard floor for the *median* paired co-scheduled/serial ratio.  The
#: pool's true cost is within a couple percent of zero; shared-hardware
#: noise on one pair is +-5-10%, so the median over REPS pairs (plus
#: retries) is the robust detector for a real regression.
NONINFERIORITY_FLOOR = 0.93

#: Extra paired samples granted to a grid size whose best ratio has not
#: reached 1.0x yet (noise retries, never a loosened bar).
GRID_RETRIES = 4


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


def _mass_timer_chain(fast_path):
    """Events/sec with 20k concurrent periodic timers (wheel regime).

    Missions keep a handful of timers pending, far below the wheel's
    engage threshold; this case measures the load it exists for — a
    standing mass of long-period timers (fleet-scale tickers), where
    far-horizon inserts park in O(1) buckets and keep the hot heap
    shallow.  Fast and legacy execute the identical event sequence.
    """
    sim = Simulator(seed=42, fast_path=fast_path)
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
    """One seeded mission's trace digest per kernel (fast, legacy).

    The byte-identity gate for the kernel lanes: ready deque and timer
    wheel must replay the single-heap kernel bit for bit — same event
    order, same RNG draws, same fault drops — so both digests must be
    one digest.  The digest is taken before the world goes back to the
    arena (release trims the trace).
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
            release_world(task.world)
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


def _coscheduled_run(coschedule=COSCHEDULE):
    # coschedule_min_units=0: this grid measures the co-schedule lane
    # itself, so the small-campaign auto-clamp must not reroute it to
    # serial at bench sizes below the threshold.
    spec = _campaign_spec()
    started = time.perf_counter()
    result = exp.run(spec, jobs=1, coschedule=coschedule,
                     coschedule_min_units=0)
    return result, MISSIONS / max(time.perf_counter() - started, 1e-9)


def _serial_run():
    """The ``coschedule=1`` lane — the grid comparisons' denominator."""
    return _coscheduled_run(coschedule=1)


def _best(fn, reps=REPS):
    return max(fn() for _ in range(reps))


def _soft_guard(current):
    """Warn (never fail) when throughput regressed >20% vs the record."""
    if not BENCH_PATH.exists():
        return
    try:
        previous = json.loads(BENCH_PATH.read_text())
        recorded = previous["campaign"]["fast_coscheduled_missions_per_sec"]
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


def test_bench_kernel_fast_path_and_coschedule(benchmark):
    # -- micro: the two lanes, fast vs legacy ------------------------------
    micro = {
        "zero_delay_fast_events_per_sec": _best(
            lambda: _zero_delay_chain(True)),
        "zero_delay_legacy_events_per_sec": _best(
            lambda: _zero_delay_chain(False)),
        "timed_fast_events_per_sec": _best(lambda: _timed_chain(True)),
        "timed_legacy_events_per_sec": _best(lambda: _timed_chain(False)),
        "mass_timer_fast_events_per_sec": _best(
            lambda: _mass_timer_chain(True)),
        "mass_timer_legacy_events_per_sec": _best(
            lambda: _mass_timer_chain(False)),
        "us_per_beat": min(_idle_pair_us_per_beat() for _ in range(REPS)),
    }

    # -- byte-identity: fast vs legacy kernel ------------------------------
    parity_digests = _kernel_parity_digests()
    assert len(set(parity_digests.values())) == 1, (
        f"trace digests diverge across kernels: {parity_digests}"
    )

    # -- campaign: (legacy|fast) x (fresh|reuse) x coschedule grid ---------
    # Configurations are interleaved within each round (not phase-by-
    # phase): shared-hardware load drifts on a minutes scale, large
    # enough to invert phase-sequential comparisons, so only back-to-back
    # runs compare like with like.  Best-of-REPS each.
    assert Simulator.DEFAULT_FAST_PATH  # the shipped default
    assert world_reuse_enabled()  # arena reuse is the shipped default

    def _legacy_solo_missions_per_sec():
        Simulator.DEFAULT_FAST_PATH = False
        try:
            return _solo_missions_per_sec()
        finally:
            Simulator.DEFAULT_FAST_PATH = True

    # The reference store: fresh-built worlds, serial execution.  Every
    # reuse/co-scheduled configuration must reproduce it byte for byte.
    set_world_reuse(False)
    clear_world_arena()
    reference = exp.run(_campaign_spec(), jobs=1)
    ref_json = json.dumps(reference.results, sort_keys=True)
    events_by_source = dict(reference.events_by_source)
    beats = {"beats_replayed": reference.beats_replayed,
             "beats_materialised": reference.beats_materialised}

    def _assert_identical(result, label):
        assert json.dumps(result.results, sort_keys=True) == ref_json, (
            f"{label}: store differs from the fresh serial reference"
        )

    legacy_solo = _legacy_solo_missions_per_sec()
    fresh_solo = _solo_missions_per_sec()

    set_world_reuse(True)
    clear_world_arena()
    reuse_solo = _solo_missions_per_sec()
    coscheduled, _first_mps = run_once(benchmark, _coscheduled_run)
    _assert_identical(coscheduled, f"reuse coschedule={COSCHEDULE}")
    serial_checked = False
    checked_sizes = set()
    reuse_serial = 0.0
    grid = {size: {"mps": 0.0, "ratios": []} for size in COSCHEDULE_GRID}

    def _grid_pair(size):
        """One back-to-back (serial, co-scheduled) pair — the drift-immune
        unit of comparison."""
        nonlocal reuse_serial, serial_checked
        serial_result, serial_mps = _serial_run()
        if not serial_checked:
            _assert_identical(serial_result, "reuse serial")
            serial_checked = True
        reuse_serial = max(reuse_serial, serial_mps)
        result, mps = _coscheduled_run(size)
        if size not in checked_sizes:
            _assert_identical(result, f"reuse coschedule={size}")
            checked_sizes.add(size)
        entry = grid[size]
        entry["mps"] = max(entry["mps"], mps)
        entry["ratios"].append(mps / serial_mps)

    for _ in range(REPS):
        set_world_reuse(False)
        legacy_solo = max(legacy_solo, _legacy_solo_missions_per_sec())
        fresh_solo = max(fresh_solo, _solo_missions_per_sec())
        set_world_reuse(True)
        reuse_solo = max(reuse_solo, _solo_missions_per_sec())
        for size in COSCHEDULE_GRID:
            _grid_pair(size)

    # The grid guarantee: co-scheduling never loses to the serial lane.
    # The pool's true cost is within a couple percent of zero, smaller
    # than one pair's shared-hardware noise, so lagging sizes get extra
    # paired samples before the hard assertions: the best pair must
    # reach parity (the file's best-of semantics) and the median must
    # clear the non-inferiority floor (a real regression fails both).
    for _ in range(GRID_RETRIES):
        lagging = [
            s for s in COSCHEDULE_GRID if max(grid[s]["ratios"]) < 1.0
        ]
        if not lagging:
            break
        for size in lagging:
            _grid_pair(size)
    for size in COSCHEDULE_GRID:
        ratios = grid[size]["ratios"]
        best, median = max(ratios), statistics.median(ratios)
        assert best >= 1.0, (
            f"coschedule={size} never reached the serial lane: best "
            f"paired ratio {best:.3f} over {len(ratios)} pairs"
        )
        assert median >= NONINFERIORITY_FLOOR, (
            f"coschedule={size} costs throughput: median paired ratio "
            f"{median:.3f} < {NONINFERIORITY_FLOOR}"
        )

    cosched_mps = grid[COSCHEDULE]["mps"]
    _soft_guard(cosched_mps)
    speedup = cosched_mps / PR3_BASELINE_MISSIONS_PER_SEC
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
            "coschedule": COSCHEDULE,
            "coschedule_grid": list(COSCHEDULE_GRID),
            "pr3_baseline_missions_per_sec": PR3_BASELINE_MISSIONS_PER_SEC,
            "prev_tree": {
                "missions_per_sec": PREV_TREE_MISSIONS_PER_SEC,
                "paired_median_ratio": PREV_TREE_PAIRED_MEDIAN_RATIO,
                "note": (
                    "PR 9 checkout, co=8 reuse lane, interleaved "
                    "run-for-run on the same host (best-of-8 each side); "
                    "ratio is the median of 8 back-to-back pairs"
                ),
            },
            "legacy_solo_missions_per_sec": round(legacy_solo, 2),
            "fast_solo_missions_per_sec": round(fresh_solo, 2),
            "fast_coscheduled_missions_per_sec": round(cosched_mps, 2),
            "speedup_vs_pr3_baseline": round(speedup, 2),
            "reuse": {
                "enabled_by_default": True,
                "byte_identical_to_fresh": True,
                "solo_missions_per_sec": round(reuse_solo, 2),
                "serial_missions_per_sec": round(reuse_serial, 2),
                "coscheduled_missions_per_sec": {
                    str(size): round(grid[size]["mps"], 2)
                    for size in COSCHEDULE_GRID
                },
                "paired_ratio_vs_serial": {
                    str(size): {
                        "best": round(max(grid[size]["ratios"]), 3),
                        "median": round(
                            statistics.median(grid[size]["ratios"]), 3
                        ),
                        "pairs": len(grid[size]["ratios"]),
                    }
                    for size in COSCHEDULE_GRID
                },
                "arena": world_arena_stats(),
            },
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nkernel: zero-delay {micro['zero_delay_fast_events_per_sec']:,.0f}"
        f" ev/s fast vs {micro['zero_delay_legacy_events_per_sec']:,.0f}"
        f" legacy; timed {micro['timed_fast_events_per_sec']:,.0f} vs "
        f"{micro['timed_legacy_events_per_sec']:,.0f}; mass-timer "
        f"{micro['mass_timer_fast_events_per_sec']:,.0f} vs "
        f"{micro['mass_timer_legacy_events_per_sec']:,.0f}; idle pair "
        f"{micro['us_per_beat']:.2f} us/beat\n"
        f"parity: fast|legacy trace digest "
        f"{report['parity']['trace_digest']}; beats replayed "
        f"{beats['beats_replayed']}, materialised "
        f"{beats['beats_materialised']}\n"
        f"campaign ({MISSIONS} missions): legacy {legacy_solo:.1f}/s, "
        f"fresh {fresh_solo:.1f}/s, reuse {reuse_solo:.1f}/s solo; "
        f"reuse serial {reuse_serial:.1f}/s vs coscheduled "
        + ", ".join(
            f"co={s} {grid[s]['mps']:.1f}/s "
            f"(best pair {max(grid[s]['ratios']):.2f}x)"
            for s in COSCHEDULE_GRID
        )
        + f" -> {speedup:.2f}x vs PR3 baseline "
        f"({PR3_BASELINE_MISSIONS_PER_SEC}/s)\n"
        f"wrote {BENCH_PATH.name}"
    )
