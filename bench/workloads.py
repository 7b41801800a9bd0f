"""The six workloads: what each runs, at which size, and how a run is judged.

A workload is a *program invocation* (``python -m repro ...`` or
``bench/entry.py`` where no CLI exists) plus the checks that decide how
many of its units failed.  Sizes are constants here, never flags: two
result files are comparable only when they ran the same sizes.

Three sizes per workload:

* ``full``  — the timed end-to-end runs (2-3 s of program wall each on the
  2-core bench host, repeated for ``--seconds``);
* ``trace`` — 1/5 of ``full``: the in-process traced run;
* ``smoke`` — ~1/20 of ``full``: the warm-up run inside set-up, and every
  run of ``run.py --smoke``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent

#: Client requests per campaign mission (the CLI default, spelled out).
CAMPAIGN_REQUESTS = 30
#: Client requests per gray mission (the CLI default: a mission must
#: outlive its own repair).
GRAY_REQUESTS = 200
#: Cells of the default gray matrix: 2 FTMs x 3 resources x 2 factors.
GRAY_CELLS = 12
#: Cells of Table 3: 6 deployments + 30 transitions.
TABLE3_CELLS = 36


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``README.md`` for why each exists)."""

    name: str
    why: str
    #: Which program the run starts: ``campaign``, ``gray`` or ``table3``.
    program: str
    #: What one unit is: ``mission``, ``trial`` or ``cell`` (served).
    unit: str
    #: ``serial``, ``local`` or ``remote`` — where the units execute.
    backend: str
    jobs: int
    #: size name -> program size parameters.
    sizes: Dict[str, Dict[str, int]]
    #: Program wall of one ``full`` run on the bench host; a run is
    #: killed (and counted as failed) at 3x this, floor 30 s.
    expected_wall_s: float
    #: True when the timed runs replay a store populated in set-up.
    replay: bool = False

    def units(self, size: str) -> int:
        """Units one run of this size attempts."""
        return self.cells(size) if self.replay else self.trials(size)

    def cells(self, size: str) -> int:
        """Store cells one run of this size writes (or serves)."""
        params = self.sizes[size]
        if self.program == "campaign":
            return -(-params["missions"] // params["cell_size"])
        if self.program == "gray":
            return GRAY_CELLS
        return TABLE3_CELLS

    def trials(self, size: str) -> int:
        """Simulated trials a *cold* run of this size executes."""
        params = self.sizes[size]
        if self.program == "campaign":
            return params["missions"]
        if self.program == "gray":
            return params["missions"] * GRAY_CELLS
        return params["runs"] * TABLE3_CELLS

    def client_requests(self, size: str) -> int:
        """Client requests a cold run of this size drives (0 for table3)."""
        if self.program == "campaign":
            return self.trials(size) * CAMPAIGN_REQUESTS
        if self.program == "gray":
            return self.trials(size) * GRAY_REQUESTS
        return 0

    def timeout_s(self) -> float:
        """Per-run kill timeout."""
        return max(30.0, 3.0 * self.expected_wall_s)

    def argv(self, size: str, seed: int, store: Path, fresh: bool,
             workers: Optional[Sequence[str]] = None) -> List[str]:
        """The program's command line for one run."""
        params = self.sizes[size]
        if self.program == "table3":
            return [sys.executable, str(BENCH_DIR / "entry.py"), "table3",
                    "--runs", str(params["runs"]), "--seed", str(seed),
                    "--store", str(store)]
        if self.program == "gray":
            argv = [sys.executable, "-m", "repro", "gray-matrix",
                    "--missions", str(params["missions"]),
                    "--requests", str(GRAY_REQUESTS)]
        else:
            argv = [sys.executable, "-m", "repro", "campaign",
                    "--missions", str(params["missions"]),
                    "--cell-size", str(params["cell_size"]),
                    "--requests", str(CAMPAIGN_REQUESTS)]
        argv += ["--jobs", str(self.jobs), "--seed", str(seed),
                 "--store", str(store), "--json"]
        if self.backend == "remote":
            argv += ["--workers", ",".join(workers or ()), "--wire", "digest"]
        else:
            argv += ["--backend", self.backend]
        if fresh:
            argv.append("--fresh")
        return argv


_CAMPAIGN_SIZES = {
    "full": {"missions": 300, "cell_size": 50},
    "trace": {"missions": 60, "cell_size": 10},
    "smoke": {"missions": 18, "cell_size": 3},
}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="campaign_serial",
        why="north-star campaign on one core: 75% heartbeat / 23% timer events, "
            "kernel is ~56% of self time - heartbeat, timer and kernel work shows here",
        program="campaign", unit="mission", backend="serial", jobs=1,
        sizes=_CAMPAIGN_SIZES, expected_wall_s=3.2,
    ),
    Workload(
        name="campaign_pool2",
        why="same spec and seed over the 2-process local pool: does a serial gain "
            "survive batching, pickling and pool IPC in exp.runner",
        program="campaign", unit="mission", backend="local", jobs=2,
        sizes=_CAMPAIGN_SIZES, expected_wall_s=2.2,
    ),
    Workload(
        name="campaign_remote2",
        why="same spec and seed over two TCP workers, digest wire: the only workload "
            "with exp.distributed framing, acks, reconciliation and shadow stores",
        program="campaign", unit="mission", backend="remote", jobs=2,
        sizes=_CAMPAIGN_SIZES, expected_wall_s=2.4,
    ),
    Workload(
        name="gray_requests",
        why="request-heavy gray matrix (200 requests per mission): components, ftm and "
            "core carry ~44% of self time, kernel lanes the least - bypasses heartbeat work",
        program="gray", unit="mission", backend="serial", jobs=1,
        sizes={"full": {"missions": 5}, "trace": {"missions": 1},
               "smoke": {"missions": 1}},
        expected_wall_s=2.8,
    ),
    Workload(
        name="table3_transitions",
        why="the paper's Table 3: deploy plus one transition per trial on a fresh World, "
            "no traffic - bypasses heartbeat and arena, targets script/components/engine",
        program="table3", unit="trial", backend="serial", jobs=1,
        sizes={"full": {"runs": 30}, "trace": {"runs": 6}, "smoke": {"runs": 2}},
        expected_wall_s=2.6,
    ),
    Workload(
        name="store_replay",
        why="replays a populated one-mission-per-cell store: kernel idle, exp.store and "
            "exp.spec (cell_hash) do ~85% of the work, interpreter start-up the rest",
        program="campaign", unit="cell", backend="serial", jobs=1,
        sizes={"full": {"missions": 150, "cell_size": 1},
               "trace": {"missions": 30, "cell_size": 1},
               "smoke": {"missions": 8, "cell_size": 1}},
        expected_wall_s=0.8, replay=True,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Workloads that share one spec and seed and must write identical stores.
CROSS_BACKEND = ("campaign_serial", "campaign_pool2", "campaign_remote2")


def judge(workload: Workload, size: str, returncode: Optional[int],
          summary: Optional[Dict[str, Any]], cell_files: int,
          cold_summary: Optional[Dict[str, Any]] = None) -> Tuple[int, List[str]]:
    """How many of a run's units failed, and why.

    ``returncode`` is ``None`` for a run killed at its timeout.  A run
    that exited non-zero, timed out, printed no summary, or reported
    ``problems`` loses *all* its units; dirty missions and missing cells
    lose only themselves.
    """
    units = workload.units(size)
    if returncode is None:
        return units, ["timed out"]
    if returncode != 0:
        return units, [f"exit code {returncode}"]
    if summary is None:
        return units, ["no JSON summary on stdout"]
    problems = list(summary.get("problems") or []) + list(summary.get("failures") or [])
    if problems:
        return units, [f"program reported: {p}" for p in problems]

    want_state = "full" if workload.replay else "cold"
    want_trials = 0 if workload.replay else workload.trials(size)
    if summary.get("cache_state") != want_state:
        return units, [f"cache_state {summary.get('cache_state')!r}, want {want_state!r}"]
    if summary.get("trials_executed") != want_trials:
        return units, [f"trials_executed {summary.get('trials_executed')}, "
                       f"want {want_trials}"]
    if workload.replay and cold_summary is not None:
        if summary.get("campaign") != cold_summary.get("campaign"):
            return units, ["replay summary differs from the cold run's"]

    failed = 0
    notes: List[str] = []
    missing = workload.cells(size) - cell_files
    if missing > 0:
        per_cell = units // workload.cells(size)
        failed += missing * per_cell
        notes.append(f"{missing} cell file(s) missing from the store")
    if workload.program == "campaign" and not workload.replay:
        section = summary.get("campaign") or {}
        dirty = workload.trials(size) - int(section.get("clean_missions", 0))
        if dirty:
            failed += dirty
            notes.append(f"{dirty} dirty mission(s)")
    elif workload.program == "gray":
        section = summary.get("gray") or {}
        if section.get("missions") != workload.trials(size):
            return units, [f"gray ran {section.get('missions')} missions"]
        if section.get("ok") != section.get("sent"):
            return units, [f"gray lost requests: {section.get('ok')}/{section.get('sent')}"]
    return min(failed, units), notes
