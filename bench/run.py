"""The repo's benchmark: one command, six workloads, end to end and by layer.

Two ways to call it, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--smoke] [--trace] [--out FILE]

The first form is the gate's: one workload, one JSON object on the last
line of stdout (``correct``, ``attempted``, ``failed``, ``metrics``) —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The second form runs every workload in turn, prints
every metric by name with its unit, and writes a result file that
``bench/compare.py`` reads.  Tracing is never on while an end-to-end
number is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def _contract() -> dict:
    """``BENCHMARK.json``: the names and ``run_seconds`` the gate fixed."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def _print_end_to_end(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, size {result['size']}, "
          f"{result['units_per_run']} {result['unit']}s per run) ==")
    for name, row in result["metrics"].items():
        if row["median"] is None:
            print(f"  {name:<18s} no good run")
            continue
        print(f"  {name:<18s} {row['median']:>12.4f} {row['unit']:<8s} "
              f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, min {row['min']:.4f}, "
              f"max {row['max']:.4f}, n={row['n']}]")
    info = result["info"]
    print(f"  info: wall_s={info['wall_s']}, results_digest={info['results_digest']}, "
          f"digest_drift={info['digest_drift']}, host.spin_ms={info['host.spin_ms']:.3f}, "
          f"runs made={len(result['runs'])} (noisy {info['noisy_runs']})")
    if info["digest_drift"]:
        print(f"  warning: results_digest differs from bench/golden.json (not gated); "
              f"if the results were meant to change, refresh with: "
              f"python3 bench/run.py --seed {result['seed']} --refresh-golden")
    for problem in info["problems"]:
        print(f"  problem: {problem}")


def _print_per_layer(workload: str, layers: dict) -> None:
    print(f"== {workload}: per-layer metrics (traced run) ==")
    for name, row in layers.items():
        print(f"  {name:<40s} {row['value']:>16.4f} {row['unit']}")


def _last_line(result: dict, names, source: dict) -> str:
    metrics = {}
    for entry in names:
        row = source[entry["name"]]
        value = row["median"] if "median" in row else row["value"]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def run_one(args) -> int:
    """The gate's form: one workload, the contract's JSON on the last line."""
    contract = _contract()
    workload = BY_NAME[args.workload]
    with harness.Session() as session:
        if args.trace:
            import trace as bench_trace

            traced = bench_trace.traced_workload(session, workload, args.seed,
                                                 args.seconds)
            _print_per_layer(workload.name, traced["per_layer"])
            for problem in traced["problems"]:
                print(f"  problem: {problem}")
            print(f"  spans written to {traced['trace_file']}")
            line = _last_line(traced, contract["per_layer"], traced["per_layer"])
        else:
            result = harness.run_workload(session, workload, args.seed, args.seconds)
            _print_end_to_end(result)
            if result["metrics"]["units_per_s"]["median"] is None:
                print("error: no run completed", file=sys.stderr)
                return 1
            line = _last_line(result, contract["end_to_end"], result["metrics"])
    print(line)
    return 0


def run_all(args) -> int:
    """Every workload in turn, then the result file."""
    contract = _contract()
    size = "smoke" if args.smoke else "full"
    seconds = 0.0 if args.smoke else float(
        args.seconds if args.seconds is not None else contract["run_seconds"])
    report = {
        "schema": 1, "seed": args.seed, "mode": size, "run_seconds": seconds,
        "fingerprint": harness.fingerprint(), "workloads": {},
    }
    with harness.Session() as session:
        for workload in WORKLOADS:
            result = harness.run_workload(
                session, workload, args.seed, seconds, size=size,
                min_runs=1 if args.smoke else harness.MIN_RUNS,
                setup_repeats=1 if args.smoke else harness.SETUP_REPEATS)
            _print_end_to_end(result)
            report["workloads"][workload.name] = result
        if args.trace:
            import trace as bench_trace

            micro = None
            for workload in WORKLOADS:
                traced = bench_trace.traced_workload(
                    session, workload, args.seed, seconds, smoke=args.smoke,
                    micro=micro, end_to_end=report["workloads"])
                micro = traced["micro"]
                _print_per_layer(workload.name, traced["per_layer"])
                entry = report["workloads"][workload.name]
                entry["per_layer"] = traced["per_layer"]
                entry["info"]["problems"] += traced["problems"]
                entry["correct"] = entry["correct"] and traced["correct"]
    report["fingerprint"]["loadavg_end"] = os.getloadavg()[0]

    if args.refresh_golden:
        _refresh_golden(report)
    out = Path(args.out) if args.out else (
        harness.OUT / f"result-{size}-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {out}")
    failed = sum(r["failed"] for r in report["workloads"].values())
    correct = all(r["correct"] for r in report["workloads"].values())
    print(f"fail_ratio overall: {failed} failed unit(s); correct={correct}")
    return 0 if correct else 1


def _refresh_golden(report: dict) -> None:
    """Record this run's full-size ``results_digest`` per workload."""
    if report["mode"] != "full":
        print("golden digests are full-size only; not refreshed", file=sys.stderr)
        return
    try:
        golden = json.loads(harness.GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        golden = {"digests": {}}
    golden["digests"][str(report["seed"])] = {
        name: result["info"]["results_digest"]
        for name, result in report["workloads"].items()
    }
    harness.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"refreshed {harness.GOLDEN} for seed {report['seed']}")


def main(argv=None) -> int:
    """Parse arguments and dispatch to one of the two forms."""
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run this workload only and end with the gate's JSON line")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset passed to the program's --seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="per-layer traced run (1) or end-to-end (0)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, one run each")
    parser.add_argument("--out", default=None, help="result file (all-workloads form)")
    parser.add_argument("--refresh-golden", action="store_true",
                        help="record this run's results_digest in bench/golden.json")
    args = parser.parse_args(argv)
    harness.require_program()
    if args.workload:
        if args.seconds is None:
            args.seconds = float(_contract()["run_seconds"])
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
