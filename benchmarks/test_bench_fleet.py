"""Benchmark: fleet-scale campaign throughput across executor backends.

Writes ``BENCH_fleet.json`` (uploaded as a CI artifact next to the other
``BENCH_*.json`` reports) with fleet missions/sec for the serial and
persistent local-pool configurations.  A fleet mission
is much heavier than a single-pair campaign mission — one random
multi-host topology, several placed FTM pairs, open-loop load, churn,
and the fleet Resilience Manager's periodic shared-R sweeps — so the
numbers are not comparable to ``BENCH_distributed.json``; the report
carries the fleet shape so the trajectory reads correctly.

Every configuration's results are asserted byte-identical to the serial
reference before any number is reported (the per-mission trace digests
ride inside the cell payloads, so equality also certifies event-order
identity), keeping the backends-are-pure-execution-strategy contract.
"""

import json
import os
import sys
import time
from pathlib import Path

from conftest import run_once

from repro import exp
from repro.eval import fleet_campaign

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

HOSTS = int(os.environ.get("BENCH_FLEET_HOSTS", "12"))
APPS = int(os.environ.get("BENCH_FLEET_APPS", "4"))
MISSIONS = int(os.environ.get("BENCH_FLEET_MISSIONS", "4"))
REPS = max(1, int(os.environ.get("BENCH_FLEET_REPS", "2")))


def _spec():
    return fleet_campaign.spec(
        missions=MISSIONS, base_seed=9000, hosts=HOSTS, apps=APPS,
    )


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def _timed_run(**kwargs):
    spec = _spec()
    missions = spec.unit_count
    started = time.perf_counter()
    result = exp.run(spec, **kwargs)
    return result, missions / max(time.perf_counter() - started, 1e-9)


def test_bench_fleet_campaign(benchmark):
    cpu_count = os.cpu_count() or 1
    grid = [
        ("serial jobs=1", dict(jobs=1, backend="serial")),
        ("local jobs=2", dict(jobs=2, backend="local")),
    ]
    try:
        reference = exp.run(_spec(), jobs=1, backend="serial")

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
                result, mps = _timed_run(**dict(kwargs))
                assert _dump(result) == _dump(reference), scenario
                best[scenario] = max(best[scenario], mps)
    finally:
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
    data = fleet_campaign.from_results(reference.results)

    report = {
        "generated_by": "benchmarks/test_bench_fleet.py",
        "note": (
            f"best-of-{REPS} interleaved; fleet missions/sec over "
            f"{HOSTS}-host x {APPS}-app missions (placement x churn "
            "grid); byte-identity of every configuration asserted "
            "against the serial reference before reporting"
        ),
        "host": {"cpu_count": cpu_count, "platform": sys.platform},
        "fleet": {"hosts": HOSTS, "apps": APPS,
                  "missions": data["missions"]},
        "observed": {
            "requests_ok": data["ok"],
            "requests_sent": data["sent"],
            "transitions": data["transitions"],
            "contention_decisions": data["contention_decisions"],
            "node_downs": data["node_downs"],
        },
        "baseline_missions_per_sec": round(baseline, 2),
        "rows": rows,
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"{row['scenario']:<34s} {row['missions_per_sec']:>8.1f}/s "
        f"({row['speedup']:.2f}x)"
        for row in rows
    ]
    print(
        "\nfleet grid (missions/s, byte-identical):\n  "
        + "\n  ".join(lines)
        + f"\nfleet shape: {HOSTS} hosts x {APPS} apps, "
        f"{data['transitions']} transitions "
        f"({data['contention_decisions']} contention-triggered), "
        f"{data['node_downs']} churn outages"
        f"\nwrote {BENCH_PATH.name}"
    )

    problems = fleet_campaign.shape_checks(data)
    assert not problems, problems
