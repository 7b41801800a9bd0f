"""The traced run: spans recorded from outside, turned into per-layer metrics.

``run.py --trace 1`` runs a workload's spec **in-process, serial backend,
at 1/5 size**, once with wrappers installed on public callables and once
without (the pair gives ``trace.overhead_ratio``).  Nothing under
``src/`` is edited: the wrappers are put on

* ``ResultStore.load_cells`` / ``save_cell`` / ``write_manifest`` and
  ``repro.exp.spec.cell_hash`` (module attributes the store looks up at
  call time),
* the eval module's ``lease_world`` / ``run_solo`` names,
* the spec's own ``trial`` and ``reduce`` fields (``functools.wraps``
  keeps the import reference and the source digest, so cell hashes — and
  therefore store bytes — are the same with and without tracing; that is
  checked on every pair),

and the harness itself opens the ``exp.run``, ``eval.from_results`` and
``eval.shape_checks`` spans around its own calls.  Each span records
name, start, end, parent and the id of the run it belongs to; spans
stay in memory and are written to ``bench/out/trace-<workload>.json``
when the traced run ends.  Self time is a span's duration minus the part
its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import harness
import micro as micro_drivers
from workloads import BY_NAME, GRAY_REQUESTS, CAMPAIGN_REQUESTS, Workload

def per_layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit, in ``BENCHMARK.json``'s order.

    The contract file is the one list of per-layer names; a metric this
    module computes but the contract does not name is an error.
    """
    contract = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in contract["per_layer"]}


class Tracer:
    """An in-memory span recorder (one per traced invocation)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._clock = time.perf_counter_ns

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record one span; nested spans get this one as their parent."""
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "name": name,
                  "parent": None if parent is None else parent["id"],
                  "run": len(self.spans) if parent is None else parent["run"],
                  "start": self._clock(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call (identity preserved)."""
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def installed(tracer: Tracer, eval_module: Any) -> Iterator[None]:
    """Put the wrappers on the public callables for one traced run only."""
    from repro.exp import spec as spec_mod
    from repro.exp.store import ResultStore

    targets = [
        (ResultStore, "load_cells", "exp.store.load_cells"),
        (ResultStore, "save_cell", "exp.store.save_cell"),
        (ResultStore, "write_manifest", "exp.store.write_manifest"),
        (spec_mod, "cell_hash", "exp.spec.cell_hash"),
    ]
    if hasattr(eval_module, "lease_world"):
        targets.append((eval_module, "lease_world", "kernel.world.lease_world"))
    if hasattr(eval_module, "run_solo"):
        targets.append((eval_module, "run_solo", "kernel.sim.run_solo"))
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _name in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr]))
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


class _Program:
    """What the CLI does for one workload, callable in-process."""

    def __init__(self, workload: Workload, size: str, seed: int):
        from repro.eval import campaign, gray, table3

        self.workload = workload
        params = workload.sizes[size]
        if workload.program == "campaign":
            self.module = campaign
            self.build = lambda: campaign.sharded_spec(
                missions=params["missions"], base_seed=5000 + seed,
                requests=CAMPAIGN_REQUESTS, cell_size=params["cell_size"])
            self.aggregate = campaign.from_shard_results
            self.checks = campaign.shard_shape_checks
        elif workload.program == "gray":
            self.module = gray
            self.build = lambda: gray.spec(
                missions=params["missions"], base_seed=41_000 + seed,
                ftms=["pbr", "lfr"], resources=["cpu", "link", "disk"],
                factors=[4.0, 8.0], requests=GRAY_REQUESTS, slo_ms=30.0)
            self.aggregate = gray.from_results
            self.checks = gray.shape_checks
        else:
            self.module = table3
            self.build = lambda: table3.spec(runs=params["runs"], base_seed=1000 + seed)
            self.aggregate = table3.from_results
            self.checks = table3.shape_checks

    def run(self, store: Path, fresh: bool, tracer: Optional[Tracer] = None,
            root: str = "program") -> Dict[str, Any]:
        """Build the spec, run it serially, aggregate, check — optionally traced."""
        from repro import exp
        from repro.kernel import clear_world_arena, world_arena_stats

        clear_world_arena()  # a fresh process starts with an empty arena
        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        stats = exp.ExecutionStats()
        started = time.perf_counter()
        with span(root) as root_span:
            spec = self.build()
            if tracer is not None:
                spec = dataclasses.replace(
                    spec, trial=tracer.wrap("eval.trial", spec.trial),
                    reduce=(None if spec.reduce is None
                            else tracer.wrap("eval.reduce", spec.reduce)))
            with installed(tracer, self.module) if tracer is not None else nullcontext():
                with span("exp.run"):
                    result = exp.run(spec, jobs=1, backend="serial", fresh=fresh,
                                     store=exp.ResultStore(str(store)), stats=stats)
            with span("eval.from_results"):
                data = self.aggregate(result.results)
            with span("eval.shape_checks"):
                problems = self.checks(data)
        wall = time.perf_counter() - started
        return {"wall_s": wall, "problems": list(problems), "result": result,
                "stats": stats, "arena": world_arena_stats(),
                "run_id": None if root_span is None else root_span["run"]}


def _duration(span: Dict[str, Any]) -> int:
    return span["end"] - span["start"]


def layer_metrics(spans: List[Dict[str, Any]], timed_runs: set,
                  workload: Workload, size: str, runs: List[Dict[str, Any]],
                  cell_bytes: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one workload's traced runs.

    ``timed_runs`` holds the run ids of the timed roots; spans of a
    set-up root (``store_replay``'s cold run) count only towards the
    store's save path.  A layer with no span on this workload reads 0.
    """
    timed = [s for s in spans if s["run"] in timed_runs]
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in timed:
        by_name.setdefault(span["name"], []).append(span)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in timed:
        children.setdefault(span["parent"], []).append(span)

    def total(name: str) -> int:
        return sum(_duration(s) for s in by_name.get(name, ()))

    def mean(chosen: List[Dict[str, Any]]) -> float:
        return statistics.mean(_duration(s) for s in chosen) if chosen else 0.0

    count = len(runs)
    units = count * workload.units(size)
    cells = count * workload.cells(size)
    trials = sum(r["result"].executed for r in runs)
    requests = workload.client_requests(size) * count if trials else 0
    events = {key: sum(r["result"].events_by_source.get(key, 0) for r in runs)
              for key in ("heartbeat", "timer", "request", "fault")}
    all_events = sum(events.values())

    roots = by_name.get("exp.run", [])
    root_ns = sum(_duration(r) for r in roots)
    child_ns = sum(_duration(c) for r in roots for c in children.get(r["id"], ()))
    plans = []
    for root in roots:
        kids = sorted(children.get(root["id"], ()), key=lambda s: s["start"])
        loads = [k for k in kids if k["name"] == "exp.store.load_cells"]
        rest = [k for k in kids if k["name"] != "exp.store.load_cells"]
        first_work = rest[0]["start"] if rest else root["end"]
        plans.append(first_work - root["start"] - sum(_duration(k) for k in loads))
    saves = [s for s in spans if s["name"] == "exp.store.save_cell"]
    solo_ns = total("kernel.sim.run_solo")

    return {
        "exp.runner.self_ms_per_unit": (root_ns - child_ns) / units / 1e6,
        "exp.runner.plan_ms": statistics.mean(plans) / 1e6 if plans else 0.0,
        "exp.runner.batches": float(sum(r["stats"].batches for r in runs)),
        "exp.spec.cell_hash_us": mean(by_name.get("exp.spec.cell_hash", [])) / 1e3,
        "exp.spec.cell_hash_calls_per_cell":
            len(by_name.get("exp.spec.cell_hash", ())) / cells,
        "exp.store.load_ms_per_cell": total("exp.store.load_cells") / cells / 1e6,
        "exp.store.save_ms_per_cell": mean(saves) / 1e6,
        "exp.store.manifest_ms": mean(by_name.get("exp.store.write_manifest", [])) / 1e6,
        "exp.store.bytes_per_cell": cell_bytes,
        "kernel.sim.events_per_unit.heartbeat": events["heartbeat"] / max(trials, 1),
        "kernel.sim.events_per_unit.timer": events["timer"] / max(trials, 1),
        "kernel.sim.events_per_unit.request": events["request"] / max(trials, 1),
        "kernel.sim.events_per_unit.fault": events["fault"] / max(trials, 1),
        "kernel.sim.ns_per_event": solo_ns / all_events if all_events else 0.0,
        "kernel.world.lease_us": mean(by_name.get("kernel.world.lease_world", [])) / 1e3,
        "kernel.world.arena_hits": float(sum(r["arena"]["hits"] for r in runs)),
        "kernel.world.arena_misses": float(sum(r["arena"]["misses"] for r in runs)),
        "ftm.run_us_per_request": solo_ns / requests / 1e3 if requests else 0.0,
        "eval.reduce_us_per_cell": mean(by_name.get("eval.reduce", [])) / 1e3,
        "eval.aggregate_ms":
            (total("eval.from_results") + total("eval.shape_checks")) / count / 1e6,
        "budget.coverage": child_ns / root_ns if root_ns else 0.0,
    }


def _pool_probe(session: harness.Session, workload: Workload, seed: int, size: str,
                end_to_end: Optional[Dict[str, Any]], smoke: bool) -> Dict[str, float]:
    """``campaign_pool2`` only: pool batches and parallel efficiency.

    Efficiency is the end-to-end ratio ``campaign_pool2.units_per_s / (2 x
    campaign_serial.units_per_s)``: taken from the untraced results when
    this invocation has them, otherwise from one subprocess run of each.
    """
    params = workload.sizes[size]
    home = session.mkdir("pool-batches")
    probe = harness.run_program(
        [sys.executable, str(harness.BENCH_DIR / "entry.py"), "pool-batches",
         "--missions", str(params["missions"]), "--cell-size", str(params["cell_size"]),
         "--seed", str(seed), "--store", str(home / "store")],
        home, workload.timeout_s(), "probe")
    batches = (probe.summary() or {}).get("batches", 0)

    rates = {}
    for name in ("campaign_serial", "campaign_pool2"):
        median = None
        if end_to_end and name in end_to_end:
            median = end_to_end[name]["metrics"]["units_per_s"]["median"]
        if median is None:
            one = BY_NAME[name]
            run_size = "smoke" if smoke else "full"
            home = session.mkdir(f"efficiency-{name}")
            run = harness.run_program(
                one.argv(run_size, seed, home / "store", fresh=True),
                home, one.timeout_s(), "run")
            median = one.units(run_size) / run.wall_s
        rates[name] = median
    return {"exp.runner.batches": float(batches),
            "exp.pool.parallel_efficiency":
                rates["campaign_pool2"] / (2.0 * rates["campaign_serial"])}


def _wire_probe(session: harness.Session, workload: Workload, seed: int,
                size: str) -> Dict[str, float]:
    """``campaign_remote2`` only: exact wire counters from the program's ``--json``."""
    workers = session.start_workers(2)
    try:
        home = session.mkdir("wire-probe")
        run = harness.run_program(
            workload.argv(size, seed, home / "store", fresh=True,
                          workers=[w.address for w in workers]),
            home, workload.timeout_s(), "run")
        summary = run.summary() or {}
    finally:
        session.stop_workers()
    cells = workload.cells(size)
    return {
        "exp.wire.bytes_in_per_cell": summary.get("wire_bytes_in", 0) / cells,
        "exp.wire.bytes_out_per_cell": summary.get("wire_bytes_out", 0) / cells,
        "exp.wire.cells_acked_digest": float(summary.get("cells_acked_digest", 0)),
        "exp.wire.cells_shipped_full": float(summary.get("cells_shipped_full", 0)),
    }


def _worker_start_ms(session: harness.Session) -> float:
    try:
        return session.start_workers(1)[0].start_ms
    finally:
        session.stop_workers()


def traced_workload(session: harness.Session, workload: Workload, seed: int,
                    seconds: float, smoke: bool = False,
                    micro: Optional[Dict[str, float]] = None,
                    end_to_end: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Traced/untraced pairs, the probes, the micro-drivers -> per-layer metrics.

    ``seconds`` is shared: ~35% to the in-process pairs (at least one),
    ~45% to the micro-drivers (each at least once).  ``micro`` carries a
    previous workload's micro-driver results so the all-workloads form
    runs them once.
    """
    if str(harness.SRC) not in sys.path:
        sys.path.insert(0, str(harness.SRC))
    size = "smoke" if smoke else "trace"
    tracer = Tracer()
    program = _Program(workload, size, seed)
    problems: List[str] = []
    timed_runs: set = set()

    replay_store: Optional[Path] = None
    if workload.replay:
        replay_store = session.mkdir("trace-replay-store")
        cold = program.run(replay_store, fresh=True, tracer=tracer, root="setup")
        problems += cold["problems"]

    traced: List[Dict[str, Any]] = []
    plain_walls: List[float] = []
    cell_bytes = 0.0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < 0.35 * seconds:
        pair = {}
        order = ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain")
        for kind in order:
            store = replay_store or session.mkdir(f"trace-{kind}")
            run = program.run(store, fresh=not workload.replay,
                              tracer=tracer if kind == "traced" else None)
            run["digests"] = harness.store_digests(store)
            pair[kind] = run
            if replay_store is None:
                shutil.rmtree(store, ignore_errors=True)
        timed_runs.add(pair["traced"]["run_id"])
        if pair["plain"]["digests"]["store_digest"] != pair["traced"]["digests"]["store_digest"]:
            problems.append("traced store differs from the untraced store")
        problems += pair["plain"]["problems"] + pair["traced"]["problems"]
        digests = pair["traced"]["digests"]
        cell_bytes = digests["cell_bytes"] / max(digests["cell_files"], 1)
        traced.append(pair["traced"])
        plain_walls.append(pair["plain"]["wall_s"])

    units_by_name = per_layer_units()
    values = {name: 0.0 for name in units_by_name}
    values.update(layer_metrics(tracer.spans, timed_runs, workload, size, traced,
                                cell_bytes))
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(plain_walls))
    if workload.name == "campaign_pool2":
        values.update(_pool_probe(session, workload, seed, size, end_to_end, smoke))
    if workload.name == "campaign_remote2":
        values.update(_wire_probe(session, workload, seed, size))
    if micro is None:
        micro = micro_drivers.run_all(
            0.0 if smoke else 0.45 * seconds, harness.child_env(),
            lambda: _worker_start_ms(session))
    values.update(micro)
    unnamed = sorted(set(values) - set(units_by_name))
    if unnamed:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unnamed}")

    harness.OUT.mkdir(parents=True, exist_ok=True)
    trace_file = harness.OUT / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload.name, "size": size, "seed": seed,
         "timed_runs": sorted(timed_runs), "clock": "perf_counter_ns",
         "spans": tracer.spans}) + "\n", encoding="utf-8")

    units = workload.units(size) * len(traced)
    failed = units if problems else 0
    return {
        "per_layer": {name: {"value": values[name], "unit": unit}
                      for name, unit in units_by_name.items()},
        "problems": sorted(set(problems)), "correct": not problems,
        "attempted": units, "failed": failed, "micro": micro,
        "trace_file": str(trace_file),
    }
