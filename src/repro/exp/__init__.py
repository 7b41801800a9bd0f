"""Experiment runtime layer: declarative specs, streaming runner, store.

The paper's evaluation is statistical — many seeded repetitions per
cell — and the north-star workload is far larger.  This package turns
every evaluation into data plus a pure function:

* :class:`ExperimentSpec` / :class:`Trial` declare *what* to measure —
  cells, parameter points and explicit per-run seeds
  (:mod:`repro.exp.spec`);
* :func:`run` executes a spec through a pluggable
  :class:`ExecutorBackend` — inline (``serial``), over a persistent
  in-host process pool (``local``), or fanned over TCP workers on other
  hosts (``remote``, :mod:`repro.exp.distributed`) — on one lifecycle
  with an order-independent merge and one way for a cell to finish, so
  every backend and ``jobs=N`` is byte-identical to ``jobs=1``
  (:mod:`repro.exp.runner`);
* :class:`ResultStore` persists results **per cell**, content-addressed
  by :func:`cell_hash`, so editing one cell recomputes one cell, a
  killed run resumes from its finished cells, and re-running an
  identical experiment simulates nothing (:mod:`repro.exp.store`).

Typical use::

    from repro import exp
    from repro.eval import table3

    result = exp.run(table3.spec(runs=20), jobs=4,
                     store=exp.ResultStore())
    data = table3.from_results(result.results)
    print(table3.render(data))
"""

from repro.exp.errors import (
    DistributedError,
    ExperimentError,
    ResultTypeError,
    SpecError,
    StoreError,
)
from repro.exp.runner import (
    BACKENDS,
    ExecutionPlan,
    ExecutionStats,
    ExecutorBackend,
    ExperimentResult,
    LocalPoolBackend,
    SerialBackend,
    default_batch,
    default_jobs,
    run,
    shutdown_local_pool,
)
from repro.exp.spec import (
    ExperimentSpec,
    ReduceFn,
    Trial,
    TrialFn,
    cell_fingerprint,
    cell_hash,
    cell_slug,
    derive_seed,
    derive_seeds,
    fingerprint,
    spec_hash,
)
from repro.exp.store import DEFAULT_ROOT, ResultStore


def __getattr__(name: str):
    """``RemoteBackend`` on first use (PEP 562): the TCP backend — and
    ``socket``/``threading`` with it — loads for remote runs only."""
    if name != "RemoteBackend":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.exp.distributed import RemoteBackend

    return RemoteBackend


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "BACKENDS",
    "DEFAULT_ROOT",
    "DistributedError",
    "ExecutionPlan",
    "ExecutionStats",
    "ExecutorBackend",
    "ExperimentError",
    "ExperimentResult",
    "ExperimentSpec",
    "LocalPoolBackend",
    "RemoteBackend",
    "SerialBackend",
    "ReduceFn",
    "ResultStore",
    "ResultTypeError",
    "SpecError",
    "StoreError",
    "Trial",
    "TrialFn",
    "cell_fingerprint",
    "cell_hash",
    "cell_slug",
    "default_batch",
    "default_jobs",
    "derive_seed",
    "derive_seeds",
    "fingerprint",
    "run",
    "shutdown_local_pool",
    "spec_hash",
]
