"""Benchmark: executor backends — serial, local pool, remote.

Writes ``BENCH_distributed.json`` (uploaded as a CI artifact next to
``BENCH_runner.json`` / ``BENCH_kernel.json``) with three sections:

* **grid** — campaign missions/sec across a jobs × workers grid:
  single-process serial, the persistent local pool, and the remote
  backend fanning cell batches over 2 localhost ``repro worker``
  subprocesses.  Every configuration's results are asserted byte-identical to the
  serial reference before any number is reported — backends are pure
  execution strategy.  Worker shadow stores are wiped between timed
  runs so every rep measures execution, not a shadow cache hit.
* **wire** — the digest-protocol accounting: coordinator-received bytes
  per campaign cell (workers return ``(slug, hash12, digest)`` tuples
  over ``RXD1`` frames), asserted ≤ ``WIRE_BUDGET_BYTES_PER_CELL`` and
  recorded as ``bytes_per_cell_on_wire``.
* **pool** — dispatch overhead of the persistent pool vs a cold pool
  per ``exp.run`` call, over a burst of small specs.

Localhost caveat recorded in the JSON: worker configurations can only
beat single-process throughput when the host has >1 CPU; the numbers
carry ``cpu_count`` so a 1-core container's flat grid reads as what it
is.  CI regenerates this file on multi-core runners.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from conftest import run_once

from repro import exp
from repro.eval import campaign

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"

#: The single-process figure BENCH_kernel.json recorded at PR 4 — the
#: cross-PR reference.
PR4_RECORDED_MISSIONS_PER_SEC = 117.0

MISSIONS = int(os.environ.get("BENCH_DISTRIBUTED_MISSIONS", "48"))
REQUESTS = 30
REPS = max(1, int(os.environ.get("BENCH_DISTRIBUTED_REPS", "2")))
#: Batches sized so every worker gets several (load-balancing realism).
CELL_SIZE = max(1, MISSIONS // 8)

#: The acceptance budget for digest-mode coordinator wire traffic.
WIRE_BUDGET_BYTES_PER_CELL = 150
#: The wire spec uses small cells so per-cell framing overhead is
#: measured at its *worst* (many cells, few units each).
WIRE_CELL_SIZE = 2

POOL_BURST_SPECS = 8
POOL_BURST_CELLS = 4


def _campaign_spec(missions=MISSIONS, seed=5000, cell_size=None,
                   requests=REQUESTS):
    return campaign.sharded_spec(
        missions=missions, base_seed=seed, requests=requests,
        cell_size=cell_size or max(1, missions // 8),
    )


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def _start_worker():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    shadow = tempfile.mkdtemp(prefix="repro-bench-shadow-")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen",
         "127.0.0.1:0", "--shadow", shadow],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    assert match, f"worker did not announce its address: {line!r}"
    return process, match.group(1), shadow


def _wipe_shadows(workers):
    """Empty every worker's shadow store so the next timed run measures
    execution rather than a shadow cache hit."""
    for _process, _address, shadow in workers:
        for entry in Path(shadow).iterdir():
            shutil.rmtree(entry, ignore_errors=True)


def _timed_run(spec=None, **kwargs):
    spec = spec or _campaign_spec()
    missions = sum(len(t.seeds) for t in spec.trials)
    started = time.perf_counter()
    result = exp.run(spec, **kwargs)
    return result, missions / max(time.perf_counter() - started, 1e-9)


def _pool_burst(persistent):
    """Wall seconds for a burst of small local-pool runs.

    ``persistent=False`` tears the pool down before every run — the
    pre-PR behavior of one fresh ``multiprocessing.Pool`` per call.
    """
    specs = [
        campaign.sharded_spec(missions=POOL_BURST_CELLS * 2,
                              base_seed=6000 + 100 * i, requests=4,
                              cell_size=2)
        for i in range(POOL_BURST_SPECS)
    ]
    started = time.perf_counter()
    for spec in specs:
        if not persistent:
            exp.shutdown_local_pool()
        exp.run(spec, jobs=2, backend="local", batch=1)
    elapsed = time.perf_counter() - started
    exp.shutdown_local_pool()
    return elapsed


def test_bench_distributed_backends(benchmark):
    cpu_count = os.cpu_count() or 1
    workers = [_start_worker() for _ in range(2)]
    addresses = [address for _process, address, _shadow in workers]
    try:
        reference = exp.run(_campaign_spec(), jobs=1, backend="serial")

        grid = [
            ("serial jobs=1", dict(jobs=1, backend="serial")),
            ("local jobs=2", dict(jobs=2, backend="local")),
            ("remote workers=2 digest", dict(workers=addresses)),
        ]
        if cpu_count > 2:
            grid.insert(2, (f"local jobs={cpu_count}",
                            dict(jobs=cpu_count, backend="local")))

        # interleaved best-of-REPS: shared-hardware load drifts on a
        # minutes scale, so only back-to-back runs compare like with like
        best = {scenario: 0.0 for scenario, _ in grid}
        first_result, first_mps = run_once(
            benchmark, lambda: _timed_run(**dict(grid[0][1]))
        )
        assert _dump(first_result) == _dump(reference)
        best[grid[0][0]] = first_mps
        for rep in range(REPS):
            for scenario, kwargs in grid:
                if rep == 0 and scenario == grid[0][0]:
                    continue  # already measured via the benchmark fixture
                if "workers" in kwargs:
                    _wipe_shadows(workers)
                result, mps = _timed_run(**dict(kwargs))
                # backends are pure execution strategy: bytes first
                assert _dump(result) == _dump(reference), scenario
                best[scenario] = max(best[scenario], mps)

        # -- wire accounting: digest acks ---------------------------------
        wire_spec = _campaign_spec(seed=5100, cell_size=WIRE_CELL_SIZE)
        wire_cells = len(wire_spec.trials)
        wire_reference = exp.run(wire_spec, jobs=1, backend="serial")
        _wipe_shadows(workers)
        digest_run = exp.run(wire_spec, workers=addresses)
        assert _dump(digest_run) == _dump(wire_reference)
        assert digest_run.cells_acked_digest == wire_cells
        assert digest_run.cells_shipped_full == 0
        digest_bpc = digest_run.wire_bytes_in / wire_cells
        # the acceptance budget: digest-mode coordinator wire traffic
        assert digest_bpc <= WIRE_BUDGET_BYTES_PER_CELL, (
            f"digest acks used {digest_bpc:.0f} bytes/cell on the wire "
            f"(budget {WIRE_BUDGET_BYTES_PER_CELL}) over {wire_cells} "
            "cells"
        )
    finally:
        for process, _address, shadow in workers:
            process.terminate()
        for process, _address, shadow in workers:
            process.wait(timeout=10)
            shutil.rmtree(shadow, ignore_errors=True)
        exp.shutdown_local_pool()

    baseline = best["serial jobs=1"]
    rows = [
        {
            "scenario": scenario,
            "missions_per_sec": round(mps, 2),
            "speedup": round(mps / baseline, 2),
        }
        for scenario, mps in best.items()
    ]
    multiworker = max(
        mps for scenario, mps in best.items()
        if "jobs=" in scenario and "jobs=1" not in scenario
        or "workers=2" in scenario
    )

    # -- pool micro-benchmark: persistent vs cold dispatch ----------------
    cold_s = min(_pool_burst(persistent=False) for _ in range(REPS))
    warm_s = min(_pool_burst(persistent=True) for _ in range(REPS))

    report = {
        "generated_by": "benchmarks/test_bench_distributed.py",
        "note": (
            f"best-of-{REPS} interleaved; campaign missions/sec over "
            f"{MISSIONS} seeded missions per configuration; byte-identity "
            "of every backend asserted against the serial reference "
            "before reporting; worker shadows wiped between timed runs"
        ),
        "host": {"cpu_count": cpu_count, "platform": sys.platform},
        "missions": MISSIONS,
        "requests": REQUESTS,
        "cell_size": CELL_SIZE,
        "baseline_missions_per_sec": round(baseline, 2),
        "pr4_recorded_missions_per_sec": PR4_RECORDED_MISSIONS_PER_SEC,
        "best_multiworker_missions_per_sec": round(multiworker, 2),
        "speedup_multiworker_vs_same_host_serial": round(
            multiworker / baseline, 2),
        "speedup_multiworker_vs_pr4_recorded": round(
            multiworker / PR4_RECORDED_MISSIONS_PER_SEC, 2),
        "bytes_per_cell_on_wire": round(digest_bpc, 1),
        "rows": rows,
        "wire": {
            "mode": "digest (RXD1 acks, shadow-store reconciliation)",
            "cells": wire_cells,
            "cell_size": WIRE_CELL_SIZE,
            "budget_bytes_per_cell": WIRE_BUDGET_BYTES_PER_CELL,
            "bytes_per_cell_on_wire": round(digest_bpc, 1),
            "digest_bytes_in": digest_run.wire_bytes_in,
            "digest_bytes_out": digest_run.wire_bytes_out,
            "cells_acked_digest": digest_run.cells_acked_digest,
            "cells_shipped_full": digest_run.cells_shipped_full,
        },
        "pool": {
            "burst_specs": POOL_BURST_SPECS,
            "cold_pool_s": round(cold_s, 3),
            "persistent_pool_s": round(warm_s, 3),
            "dispatch_overhead_saved": round(1.0 - warm_s / cold_s, 3),
        },
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"{row['scenario']:<34s} {row['missions_per_sec']:>8.1f}/s "
        f"({row['speedup']:.2f}x)"
        for row in rows
    ]
    print(
        "\ndistributed grid (campaign missions/s, byte-identical):\n  "
        + "\n  ".join(lines)
        + f"\nwire: digest acks {digest_bpc:.0f} B/cell over {wire_cells} "
        f"cells (budget {WIRE_BUDGET_BYTES_PER_CELL})"
        + f"\npool burst ({POOL_BURST_SPECS} specs): cold {cold_s:.2f}s vs "
        f"persistent {warm_s:.2f}s "
        f"({100 * (1 - warm_s / cold_s):.0f}% dispatch overhead saved)\n"
        f"host cpu_count={cpu_count}; "
        f"multiworker best {multiworker:.1f}/s = "
        f"{multiworker / baseline:.2f}x same-host serial, "
        f"{multiworker / PR4_RECORDED_MISSIONS_PER_SEC:.2f}x the recorded "
        f"PR 4 117.0/s\nwrote {BENCH_PATH.name}"
    )

    if cpu_count >= 2:
        # on real multi-core hardware the 2-worker configurations must
        # clear the bar; on a 1-core container parallelism cannot help,
        # so the grid is recorded but not asserted
        assert multiworker / baseline > 1.2, (
            f"multi-worker backends should beat single-process on "
            f"{cpu_count} CPUs: {multiworker:.1f} vs {baseline:.1f}"
        )
