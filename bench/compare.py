"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change.  One row per
(end-to-end metric, workload): the ratio ``B/A`` with its base, how much
worse ``B``'s median is, and a verdict against that row's bound:

``ok``          not worse than the bound allows
``REGRESSION``  worse than the bound allows
``unresolved``  the base's own quartile spread is wider than the bound,
                so the row cannot tell a regression from noise — unless
                every run of ``B`` reads better than every run of ``A``
                (then ``ok``)

Ratios are refused across hosts: the two fingerprints (cpu count, python
version, platform) must match, and so must size mode.  Exit code 0 when
no row regressed, 1 when one did, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Workloads whose timed run is one busy process.
ONE_PROCESS = ("campaign_serial", "gray_requests", "table3_transitions", "store_replay")

HOST_KEYS = ("cpu_count", "python", "platform")


def bound_for(metric: str, workload: str, base_median: float) -> Tuple[float, str]:
    """The regression bound of one row, as a share of the base, and its label."""
    if metric in ("units_per_s", "cpu_ms_per_unit"):
        share = 0.08 if workload in ONE_PROCESS else 0.15
        return share, f"{share:.0%}"
    if metric == "peak_rss_mb":
        return 0.05, "5%"
    if metric == "setup_s":
        # max(20 %, 0.5 s): tiny set-ups may wobble by half a second
        share = max(0.20, 0.5 / base_median) if base_median else 0.20
        return share, "max(20%, 0.5s)"
    return 0.0, "0 (any increase)"


def _worse_by(better: str, base: float, change: float) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (base - change) if better == "higher" else (change - base)
    return delta / abs(base)


def _all_better(better: str, base: List[float], change: List[float]) -> bool:
    if not base or not change:
        return False
    if better == "higher":
        return min(change) > max(base)
    return max(change) < min(base)


def compare_row(metric: str, workload: str, a: Dict[str, Any],
                b: Dict[str, Any]) -> Dict[str, Any]:
    """Judge one (metric, workload) row; ``a`` is the base."""
    if a["median"] is None or b["median"] is None:
        return {"verdict": "REGRESSION" if b["median"] is None else "unresolved",
                "ratio": None, "worse_by": None, "bound": "-", "spread": None}
    share, label = bound_for(metric, workload, a["median"])
    worse = _worse_by(a["better"], a["median"], b["median"])
    spread = ((a["q3"] - a["q1"]) / abs(a["median"])) if a["median"] else 0.0
    if metric == "fail_ratio":
        verdict = "REGRESSION" if b["median"] > a["median"] else "ok"
    elif spread > share and not _all_better(a["better"], a["values"], b["values"]):
        verdict = "unresolved"
    else:
        verdict = "REGRESSION" if worse > share else "ok"
    ratio = b["median"] / a["median"] if a["median"] else None
    return {"verdict": verdict, "ratio": ratio, "worse_by": worse,
            "bound": label, "spread": spread}


def check_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why the two files cannot be compared, or ``None`` when they can."""
    for key in HOST_KEYS:
        if a["fingerprint"].get(key) != b["fingerprint"].get(key):
            return (f"host fingerprints differ on {key}: "
                    f"{a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r} "
                    "- ratios across hosts are refused")
    if a.get("mode") != b.get("mode"):
        return f"size modes differ: {a.get('mode')!r} vs {b.get('mode')!r}"
    return None


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    """All rows as printable lines, and the number of regressions."""
    lines = [f"base A: commit {a['fingerprint'].get('commit')}, seed {a.get('seed')}, "
             f"loadavg {a['fingerprint'].get('loadavg_start')}"
             f"..{a['fingerprint'].get('loadavg_end')}",
             f"  vs B: commit {b['fingerprint'].get('commit')}, seed {b.get('seed')}, "
             f"loadavg {b['fingerprint'].get('loadavg_start')}"
             f"..{b['fingerprint'].get('loadavg_end')}",
             f"{'workload':<20s} {'metric':<16s} {'A median':>12s} {'B median':>12s} "
             f"{'B/A':>7s} {'worse by':>9s} {'A spread':>9s} {'bound':>15s}  verdict"]
    regressions = 0
    for workload, base in a["workloads"].items():
        change = b["workloads"].get(workload)
        if change is None:
            lines.append(f"{workload:<20s} missing from B")
            regressions += 1
            continue
        for metric, row_a in base["metrics"].items():
            row_b = change["metrics"][metric]
            row = compare_row(metric, workload, row_a, row_b)
            regressions += row["verdict"] == "REGRESSION"
            if row["ratio"] is None and row["worse_by"] is None:
                lines.append(f"{workload:<20s} {metric:<16s} no good run  {row['verdict']}")
                continue
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            lines.append(
                f"{workload:<20s} {metric:<16s} {row_a['median']:>12.4f} "
                f"{row_b['median']:>12.4f} {ratio:>7s} {row['worse_by']:>+9.1%} "
                f"{row['spread']:>9.1%} {row['bound']:>15s}  {row['verdict']}")
    return lines, regressions


def main(argv=None) -> int:
    """Load the two files, refuse or compare, print, set the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    refusal = check_comparable(a, b)
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    lines, regressions = compare(a, b)
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
