"""Streaming, cell-granular execution of experiment specs.

The runner turns an :class:`~repro.exp.spec.ExperimentSpec` into an
:class:`ExperimentResult`.  Four properties hold whatever the execution
strategy:

* **determinism** — every (cell, seed) unit is a pure function of its
  arguments, so ``run(spec, jobs=8)`` produces byte-identical results to
  ``run(spec, jobs=1)``, with or without batching, after a partial cache
  hit, and after a resume;
* **order-independent merge** — parallel units complete in arbitrary
  order; results are re-assembled by unit index, never by arrival;
* **store transparency** — every cell passes through
  :func:`finish_cell` (a JSON round-trip around the optional ``reduce``
  hook), so a fresh run and a cache hit return exactly the same object
  shapes;
* **incremental persistence** — with a store, a cell is written the
  moment its last unit lands, so a killed run resumes from its finished
  cells and only the missing cells' units are ever dispatched.

*Where* units execute is delegated to an :class:`ExecutorBackend`:

* ``serial`` runs units inline, in unit order;
* ``local`` fans batches over a **persistent** ``multiprocessing.Pool``
  that outlives individual :func:`run` calls — campaign pipelines that
  execute several specs in one process pay pool startup once, and
  workers resolve the trial function from a compact import reference
  instead of unpickling a function object per task;
* ``remote`` (:mod:`repro.exp.distributed`) ships the same unit
  batches over TCP to ``repro worker`` processes on other hosts, which
  send back what they ran.

A backend is *pure execution strategy*: the merged results — and the
bytes the store writes — are identical across all three, which the
backend equivalence tests assert.  All three run on the one lifecycle
in :func:`run` and yield ``(unit index, value)`` pairs into the one
assembler that finishes and persists cells; they differ in transport
and nothing else.  Units are grouped into **batches**
per dispatch, amortising pickling and round-trip overhead for
campaign-style workloads with thousands of tiny trials; a spec-level
``reduce`` hook then collapses each completed cell to a summary so such
campaigns stream counts instead of accumulating every raw result.
"""

from __future__ import annotations

import atexit
import gc
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exp.errors import ExperimentError, ResultTypeError
from repro.exp.spec import ExperimentSpec, spec_hash
from repro.exp.store import ResultStore

#: What a batch's event-attribution count list holds, in order: the
#: kernel's four event producers, then the beat clock's two counters.
EVENT_KEYS = ("heartbeat", "timer", "request", "fault",
              "beats_replayed", "beats_materialised")


@dataclass
class ExecutionStats:
    """Execution counters for one or more :func:`run` calls.

    Pass one object through several runs to aggregate (the CLI does this
    per ``reproduce`` invocation); every counter only ever increases.
    ``wire_bytes_in`` / ``wire_bytes_out`` accumulate coordinator
    socket traffic (remote backend only; zero elsewhere).
    """

    executed: int = 0
    cells_executed: int = 0
    cells_cached: int = 0
    batches: int = 0
    wire_bytes_in: int = 0
    wire_bytes_out: int = 0
    events_by_source: Dict[str, int] = field(default_factory=dict)
    beats_replayed: int = 0
    beats_materialised: int = 0

    def record_event_sources(self, sources: Dict[str, int],
                             beats_replayed: int = 0,
                             beats_materialised: int = 0) -> None:
        """Accumulate the kernel's per-subsystem event attribution.

        Counters come from worlds closed in this process plus the
        per-batch deltas pool and remote workers ship back with their
        results.  The beat clock's two counters travel with them but
        are kept apart: ``events_by_source`` stays "kernel events by
        producer".
        """
        self.beats_replayed += beats_replayed
        self.beats_materialised += beats_materialised
        acc = self.events_by_source
        for key, value in sources.items():
            acc[key] = acc.get(key, 0) + value

    def record_event_counts(self, counts: Sequence[int]) -> None:
        """Accumulate one batch's count list (:data:`EVENT_KEYS` order)."""
        sources = dict(zip(EVENT_KEYS, counts))
        replayed = sources.pop("beats_replayed", 0)
        materialised = sources.pop("beats_materialised", 0)
        self.record_event_sources(sources, replayed, materialised)

    def record_cached_cells(self, count: int) -> None:
        """Count ``count`` cells served verbatim from the result store."""
        self.cells_cached += count

    def record_cell(self, units: int) -> None:
        """Count one completed cell and the ``units`` trials it ran."""
        self.cells_executed += 1
        self.executed += units

    def record_batches(self, count: int) -> None:
        """Count ``count`` batch tasks handed to a worker pool."""
        self.batches += count

    def record_wire(self, bytes_in: int, bytes_out: int) -> None:
        """Accumulate coordinator socket traffic (remote backend)."""
        self.wire_bytes_in += bytes_in
        self.wire_bytes_out += bytes_out

    def fold(self, other: "ExecutionStats") -> None:
        """Add every counter of ``other`` (one run's stats) into this one."""
        self.executed += other.executed
        self.cells_executed += other.cells_executed
        self.cells_cached += other.cells_cached
        self.batches += other.batches
        self.record_wire(other.wire_bytes_in, other.wire_bytes_out)
        self.record_event_sources(other.events_by_source, other.beats_replayed,
                                  other.beats_materialised)


@dataclass
class ExperimentResult:
    """The outcome of running (or recalling) one experiment spec.

    ``results`` maps each cell key to its per-run result list (or, for
    specs with a ``reduce`` hook, the reduced summary), in spec order.
    ``executed`` counts the trials actually simulated — zero when the
    result store served the whole spec; ``cells_cached`` /
    ``cells_executed`` split the same story per cell, and
    ``cache_state`` names the mix coherently: ``"full"`` (everything
    served), ``"partial"`` (some cells served, some executed),
    ``"cold"`` (nothing served) or ``"disabled"`` (no store attached).
    """

    spec_name: str
    hash: str
    results: Dict[str, Any]
    executed: int
    cached: bool
    jobs: int
    elapsed_s: float
    cells_cached: int = 0
    cells_executed: int = 0
    backend: str = "serial"
    cache_state: str = "disabled"
    wire_bytes_in: int = 0
    wire_bytes_out: int = 0
    events_by_source: Dict[str, int] = field(default_factory=dict)
    beats_replayed: int = 0
    beats_materialised: int = 0

    def cell(self, key: str) -> Any:
        """Per-run results (or reduced summary) of one cell."""
        return self.results[key]

    def summary(self) -> Dict[str, Any]:
        """A JSON-safe digest (for ``reproduce --json`` and logs)."""
        return {
            "spec": self.spec_name,
            "hash": self.hash,
            "cells": len(self.results),
            "cells_cached": self.cells_cached,
            "cells_executed": self.cells_executed,
            "trials_executed": self.executed,
            "cached": self.cached,
            "cache_state": self.cache_state,
            "jobs": self.jobs,
            "backend": self.backend,
            "wire_bytes_in": self.wire_bytes_in,
            "wire_bytes_out": self.wire_bytes_out,
            "events_by_source": dict(self.events_by_source),
            "beats_replayed": self.beats_replayed,
            "beats_materialised": self.beats_materialised,
            "elapsed_s": round(self.elapsed_s, 6),
        }


#: One executable unit: (global unit index, seed, params).
_Unit = Tuple[int, int, Dict[str, Any]]


#: One local-pool task: (trial function's import reference, units).
_PoolTask = Tuple[str, List[_Unit]]


def function_ref(fn: Any) -> str:
    """The importable ``module:qualname`` reference of a trial function."""
    return f"{fn.__module__}:{getattr(fn, '__qualname__', fn.__name__)}"


def resolve_function_ref(ref: str) -> Any:
    """Import a function back from its ``module:qualname`` reference."""
    module_name, _, qualname = ref.partition(":")
    module = sys.modules.get(module_name)
    if module is None:
        module = importlib.import_module(module_name)
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def run_unit_batch(trial_fn: Any, units: Sequence[_Unit]) -> List[Tuple[int, Any]]:
    """Run one batch of (cell, seed) units in the current process.

    The shared execution body of every backend's worker side: a batch is
    a plain list so a single dispatch (one pickle or one network frame)
    covers many tiny trials.  Automatic garbage collection is suspended
    while the batch runs and restored after it, even when a unit
    raises: a closed world leaves no reference cycle (DESIGN.md
    "Mission lifecycle"), so each finished mission is freed by
    reference counting and the paused collector has nothing to fall
    behind on.  The serial backend runs every unit as a batch of one.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        return [
            (index, trial_fn(seed, params)) for index, seed, params in units
        ]
    finally:
        if was_enabled:
            gc.enable()


def _execute_pool_task(
    task: _PoolTask,
) -> Tuple[List[Tuple[int, Any]], List[int]]:
    """Run one batch in a pool worker, resolving the trial by reference.

    Returns the labelled results plus the batch's event-source counts
    (see :func:`batch_event_counts`).
    """
    trial_ref, units = task
    batch_event_counts()  # scope the counters to this batch
    results = run_unit_batch(resolve_function_ref(trial_ref), units)
    return results, batch_event_counts()


def batch_event_counts() -> List[int]:
    """Take this process's event attribution as a bare list of counts.

    Attribution accumulates per process, so pool and remote workers ship
    the delta of every batch back for the coordinating process to fold
    in with :meth:`ExecutionStats.record_event_counts` — otherwise
    ``jobs>1`` and remote runs would report zero events by source.  One
    short list per *batch*, not per cell: it rides in the batch-complete
    frame.  The counters live in :mod:`repro.kernel.sim`; a process that
    never loaded it (a replay, a remote coordinator) closed no world and
    reads zeros without loading it now.
    """
    sim = sys.modules.get("repro.kernel.sim")
    taken = sim.take_event_attribution() if sim is not None else {}
    return [taken.get(key, 0) for key in EVENT_KEYS]


def _normalise(value: Any, spec_name: str) -> Any:
    """Force a result through a JSON round-trip (store equivalence)."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ResultTypeError(
            f"spec {spec_name!r}: trial result is not JSON-serialisable "
            f"({exc}); trials must return plain dicts/lists/scalars"
        ) from exc


def finish_cell(spec: ExperimentSpec, values: List[Any]) -> Any:
    """A cell's unit results, in seed order, as the value the store keeps.

    Normalise, apply the spec's ``reduce`` hook (if any), normalise
    again — the one tail every cell passes through, in the runner's
    assembler whatever backend ran its units, so the stored bytes
    cannot depend on where they ran.
    """
    values = _normalise(values, spec.name)
    if spec.reduce is not None:
        values = _normalise(spec.reduce(values), spec.name)
    return values


def default_jobs() -> int:
    """The default worker count: ``os.cpu_count()`` (at least 1)."""
    return os.cpu_count() or 1


def default_batch(unit_count: int, worker_count: int) -> int:
    """Units grouped per worker task.

    Large enough to amortise dispatch overhead over tiny trials, small
    enough to keep the pool load-balanced and the per-task result list
    bounded — the cap is what keeps worker memory independent of the
    total unit count.
    """
    return max(1, min(32, unit_count // (worker_count * 4)))


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


@dataclass
class ExecutionPlan:
    """Everything a backend needs to execute one spec's missing units.

    The plan is execution strategy made explicit: the spec (for the
    trial function), the units to run, the requested local parallelism
    and the batch size.  Backends consume the plan and yield ``(unit
    index, raw value)`` pairs in any order; the caller owns
    normalisation, assembly and persistence.
    """

    spec: ExperimentSpec
    units: List[_Unit]
    worker_count: int
    batch_size: int = 1
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    def batches(self, start: int = 0) -> List[List[_Unit]]:
        """The units from ``start`` on, in dispatch batches, in unit order."""
        size = max(1, self.batch_size)
        return [
            list(self.units[at:at + size])
            for at in range(start, len(self.units), size)
        ]


class ExecutorBackend:
    """Where a plan's units execute — pure strategy, identical results.

    Implementations must yield every unit of the plan exactly once as
    ``(unit index, raw value)`` pairs; order is irrelevant (the caller
    merges by index).  ``close()`` releases backend resources; backends
    with cheap or process-global resources may make it a no-op.
    """

    name = "abstract"

    def execute(self, plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
        """Yield ``(unit_index, value)`` for every unit in the plan.

        Order is free — the runner merges by index — but the *set* of
        yielded indices must be exactly the plan's units: the backend
        decides where units run, never which units run.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op by default)."""


class SerialBackend(ExecutorBackend):
    """Run every unit inline, in unit order (the reference execution)."""

    name = "serial"

    def execute(self, plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
        trial = plan.spec.trial
        for unit in plan.units:
            yield from run_unit_batch(trial, (unit,))


# -- persistent local pool --------------------------------------------------

_LOCAL_POOL: Optional[Any] = None
_LOCAL_POOL_PROCESSES = 0


def local_pool(processes: int):
    """The process-wide persistent worker pool, (re)sized to ``processes``.

    The pool outlives individual :func:`run` calls: campaign pipelines
    that execute several specs in one process (``repro reproduce`` runs
    eleven) pay fork-and-import startup once instead of once per spec.
    Asking for a different worker count tears the old pool down first —
    the common case (same count throughout) is a dictionary hit.
    """
    global _LOCAL_POOL, _LOCAL_POOL_PROCESSES
    if _LOCAL_POOL is not None and _LOCAL_POOL_PROCESSES == processes:
        return _LOCAL_POOL
    shutdown_local_pool()
    import multiprocessing  # only a process that forks pays for it

    _LOCAL_POOL = multiprocessing.Pool(processes=processes)
    _LOCAL_POOL_PROCESSES = processes
    return _LOCAL_POOL


def shutdown_local_pool() -> None:
    """Tear down the persistent local pool (idempotent).

    Called automatically at interpreter exit and whenever a run needs a
    different worker count; call it explicitly to reclaim the worker
    processes early or to force a cold pool in a measurement.
    """
    global _LOCAL_POOL, _LOCAL_POOL_PROCESSES
    pool = _LOCAL_POOL
    _LOCAL_POOL = None
    _LOCAL_POOL_PROCESSES = 0
    if pool is not None:
        pool.terminate()
        pool.join()


atexit.register(shutdown_local_pool)


class LocalPoolBackend(ExecutorBackend):
    """Fan batches over the persistent in-host ``multiprocessing.Pool``.

    Tasks carry the trial's import-reference string instead of a
    pickled function object; workers resolve it against their own
    ``sys.modules``.  The plan's first unit runs here, before the pool
    exists: eval modules import the simulator at their first mission,
    so this is what makes a new pool fork from a parent that already
    holds every module the plan executes — and the process-wide
    package catalogue and assembly caches that unit filled — instead of
    each worker importing and rebuilding them.  Plans with one worker
    or at most one unit left for a pool run inline — a pool cannot beat
    a function call.  A failure mid-dispatch tears the pool down so
    stale in-flight tasks never burn CPU into the next run.
    """

    name = "local"

    def execute(self, plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
        if plan.worker_count <= 1 or len(plan.units) <= 2:
            yield from SerialBackend().execute(plan)
            return
        yield from run_unit_batch(plan.spec.trial, plan.units[:1])
        ref = function_ref(plan.spec.trial)
        tasks: List[_PoolTask] = [(ref, batch) for batch in plan.batches(1)]
        plan.stats.record_batches(len(tasks))
        pool = local_pool(plan.worker_count)
        try:
            for batch_results, counts in pool.imap_unordered(
                _execute_pool_task, tasks
            ):
                plan.stats.record_event_counts(counts)
                yield from batch_results
        except BaseException:
            # in-flight tasks of the abandoned iterator would keep
            # running in the background; a failed run forfeits the pool
            shutdown_local_pool()
            raise


#: Registry of the built-in backend names.
BACKENDS = ("serial", "local", "remote")


def _resolve_backend(
    backend: Union[str, ExecutorBackend, None],
    workers: Optional[Sequence[str]],
) -> ExecutorBackend:
    """Turn the ``backend=`` argument into a live :class:`ExecutorBackend`."""
    if isinstance(backend, ExecutorBackend):
        return backend
    if backend is None:
        backend = "remote" if workers else "local"
    if backend == "serial":
        return SerialBackend()
    if backend == "local":
        return LocalPoolBackend()
    if backend == "remote":
        from repro.exp.distributed import RemoteBackend

        if not workers:
            raise ExperimentError(
                "backend='remote' needs workers=['host:port', ...] "
                "(start them with: repro worker --listen HOST:PORT)"
            )
        return RemoteBackend(workers)
    raise ExperimentError(
        f"unknown backend {backend!r}; expected one of {BACKENDS} "
        "or an ExecutorBackend instance"
    )


class _CellAssembler:
    """Streams unit results into per-cell slots; completes cells eagerly.

    Each arriving value is placed by unit index (never by arrival
    order).  The moment a cell's last unit lands the cell is finished
    (:func:`finish_cell`), persisted (if a store is attached) and
    released — the assembler never holds more raw values than the
    currently in-flight cells.  This is the one path into the store
    whatever the backend: cell files carry no execution-strategy
    metadata, so their bytes are a pure function of the cell identity
    and its values (the backend equivalence contract).
    """

    def __init__(self, spec: ExperimentSpec, store: Optional[ResultStore],
                 stats: ExecutionStats):
        self.spec = spec
        self.store = store
        self.stats = stats
        self.completed: Dict[str, Any] = {}
        self._slots: Dict[str, List[Any]] = {}
        self._pending: Dict[str, int] = {}
        self._unit_cell: List[Tuple[str, int]] = []
        self._trial_by_key = {trial.key: trial for trial in spec.trials}

    def add_cell(self, trial) -> List[_Unit]:
        """Register one missing cell; returns its executable units."""
        units: List[_Unit] = []
        self._slots[trial.key] = [None] * trial.runs
        self._pending[trial.key] = trial.runs
        for offset, seed in enumerate(trial.seeds):
            index = len(self._unit_cell)
            self._unit_cell.append((trial.key, offset))
            units.append((index, seed, dict(trial.params)))
        return units

    def feed(self, index: int, value: Any) -> None:
        """Accept one unit result (any arrival order)."""
        key, offset = self._unit_cell[index]
        self._slots[key][offset] = value
        self._pending[key] -= 1
        if self._pending[key] == 0:
            values = finish_cell(self.spec, self._slots.pop(key))
            del self._pending[key]
            trial = self._trial_by_key[key]
            self.completed[key] = values
            self.stats.record_cell(trial.runs)
            if self.store is not None:
                self.store.save_cell(self.spec, trial, values)


def run(
    spec: ExperimentSpec,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    fresh: bool = False,
    batch: Optional[int] = None,
    stats: Optional[ExecutionStats] = None,
    backend: Union[str, ExecutorBackend, None] = None,
    workers: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Execute ``spec`` and return its merged, normalised results.

    ``jobs`` selects the level of local parallelism (default: one worker
    per CPU).  With a ``store``, previously completed *cells* are served
    without simulating anything — only missing cells' units are
    dispatched — and every completed cell is persisted immediately, so
    an interrupted run resumes where it stopped.  ``fresh`` forces full
    recomputation (and overwrites the stored cells).  ``batch`` fixes
    the number of units grouped per worker task (default: sized
    automatically); ``stats``, when given, accumulates execution
    counters across calls (each run counts into a fresh
    :class:`ExecutionStats` that is folded in once the run succeeds).

    ``backend`` picks the execution strategy: ``"serial"``, ``"local"``
    (the default — a persistent in-host process pool), ``"remote"``
    (TCP fan-out to ``repro worker`` processes named by ``workers=
    ["host:port", ...]``; implied when ``workers`` is given), or any
    :class:`ExecutorBackend` instance.  Backends — like ``jobs`` and
    ``batch`` — are pure execution strategy: results and store bytes
    are identical across all of them.
    """
    run_stats = ExecutionStats()
    digest = spec_hash(spec)
    worker_count = default_jobs() if jobs is None else max(1, int(jobs))

    cached_cells: Dict[str, Any] = {}
    if store is not None and not fresh:
        cached_cells = store.load_cells(spec)
    run_stats.record_cached_cells(len(cached_cells))

    executor = _resolve_backend(backend, workers)
    owned = not isinstance(backend, ExecutorBackend)
    assembler = _CellAssembler(spec, store, run_stats)
    assembler.completed.update(cached_cells)
    units: List[_Unit] = []
    for trial in spec.trials:
        if trial.key not in cached_cells:
            units.extend(assembler.add_cell(trial))

    started = time.perf_counter()
    if units:
        batch_event_counts()  # scope the kernel counters to this run
        size = (default_batch(len(units), worker_count)
                if batch is None else max(1, int(batch)))
        plan = ExecutionPlan(
            spec=spec, units=units, worker_count=worker_count,
            batch_size=size, stats=run_stats,
        )
        try:
            for index, value in executor.execute(plan):
                assembler.feed(index, value)
        finally:
            if owned:
                executor.close()
            run_stats.record_event_counts(batch_event_counts())
    elapsed = time.perf_counter() - started if units else 0.0

    missing = [trial.key for trial in spec.trials
               if trial.key not in assembler.completed]
    if missing:
        raise ExperimentError(
            f"backend {executor.name!r} lost {len(missing)} cell(s) of "
            f"spec {spec.name!r}: {missing[:5]}"
        )
    results = {trial.key: assembler.completed[trial.key]
               for trial in spec.trials}
    # a replay that persisted nothing leaves the computing run's record
    # (its jobs, backend and elapsed time) alone
    if store is not None and (units or not store.manifest_covers(spec, digest)):
        store.write_manifest(
            spec, meta={"jobs": worker_count, "backend": executor.name,
                        "elapsed_s": elapsed}
        )
    if stats is not None:
        stats.fold(run_stats)
    if store is None:
        cache_state = "disabled"
    elif not cached_cells:
        cache_state = "cold"
    elif not units:
        cache_state = "full"
    else:
        cache_state = "partial"
    return ExperimentResult(
        spec_name=spec.name,
        hash=digest,
        results=results,
        executed=len(units),
        cached=cache_state == "full" and bool(spec.trials),
        jobs=worker_count,
        elapsed_s=elapsed,
        cells_cached=len(cached_cells),
        cells_executed=len(spec.trials) - len(cached_cells),
        backend=executor.name,
        cache_state=cache_state,
        wire_bytes_in=run_stats.wire_bytes_in,
        wire_bytes_out=run_stats.wire_bytes_out,
        events_by_source=run_stats.events_by_source,
        beats_replayed=run_stats.beats_replayed,
        beats_materialised=run_stats.beats_materialised,
    )
