"""Declarative experiment specifications.

An :class:`ExperimentSpec` says *what* an experiment measures; the runner
(:mod:`repro.exp.runner`) decides *how* to execute it — serially, over a
process pool, or straight out of the result store.  The contract that
makes all three execution strategies interchangeable:

* a **trial function** is a pure function ``(seed, params) -> result``
  over a fresh :class:`~repro.kernel.world.World` — no shared state, no
  wall-clock, no ambient randomness;
* the result must be JSON-serialisable (dicts, lists, strings, numbers,
  booleans, ``None``), so a stored run is indistinguishable from a fresh
  one;
* the trial function must be a module-level ``def`` so worker processes
  can import it by reference.

A spec is a tree of :class:`Trial` cells, each carrying the explicit
per-run seeds.  Seeds are data, not code: two specs with the same cells
and seeds are the same experiment, which is what the content-addressed
result store keys on.

Identity is computed at two granularities:

* :func:`spec_hash` covers the whole spec — every cell, every seed, the
  code digest.  It names a complete run.
* :func:`cell_hash` covers one cell plus the spec-level identity (name,
  trial/reduce references, code digest).  Editing one cell's params or
  seeds changes only that cell's hash, which is what lets the store
  serve the untouched cells and the runner re-execute just the delta.

The code digest (:func:`code_digest`) hashes the bytes of every ``.py``
file of the ``repro`` package, so an edit anywhere below a trial — the
kernel, an FTM, a helper the trial calls — moves every address and a
warm store never serves a value the current code would not compute.
"""

from __future__ import annotations

import functools
import json
import re
from _blake2 import blake2b
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.exp.errors import SpecError

#: A trial function: pure ``(seed, params) -> JSON-serialisable result``.
TrialFn = Callable[[int, Mapping[str, Any]], Any]

#: A per-cell reduction: ``(values) -> JSON-serialisable summary``.
ReduceFn = Callable[[List[Any]], Any]


def derive_seed(base_seed: int, key: str, run: int) -> int:
    """The seed of run ``run`` of cell ``key``, derived from ``base_seed``.

    The derivation mixes the cell key and run index through a 64-bit
    keyed digest, so (a) every cell sees an independent seed sequence,
    (b) adding a new cell never perturbs the seeds of existing ones,
    (c) the mapping is reproducible across processes and Python versions,
    and (d) distinct ``(key, run)`` pairs collide with probability
    ~2^-64 — the earlier ``crc32 % 100_000`` derivation folded the whole
    space into five decimal digits, so unrelated cells routinely shared
    seeds.
    """
    payload = f"{key}\x1f{run}".encode("utf-8")
    mix = int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")
    return base_seed + mix


def derive_seeds(base_seed: int, key: str, runs: int) -> Tuple[int, ...]:
    """The full seed tuple for ``runs`` repetitions of cell ``key``."""
    return tuple(derive_seed(base_seed, key, run) for run in range(runs))


@dataclass(frozen=True)
class Trial:
    """One experiment cell: a parameter point measured over several seeds.

    ``key`` identifies the cell inside its experiment (e.g. ``pbr->lfr``),
    ``params`` is handed verbatim to the trial function, and ``seeds``
    fixes one seed per repetition — the run count is ``len(seeds)``.
    """

    key: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)

    @property
    def runs(self) -> int:
        """Number of seeded repetitions of this cell."""
        return len(self.seeds)


def _require_importable(name: str, fn: Callable, role: str) -> None:
    """Reject functions a worker process could not import by reference."""
    qualname = getattr(fn, "__qualname__", "")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise SpecError(
            f"spec {name!r}: {role} must be a module-level function "
            f"(got {qualname!r}) so worker processes can import it"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, runnable experiment: cells plus the trial function.

    ``reduce``, when set, collapses a completed cell's per-run value list
    to a summary *before* it is stored or returned — the streaming hook
    that lets a 10k-mission campaign keep counts instead of 10k dicts.
    Like the trial function it must be a module-level ``def``; the code
    digest covers its defining file.
    """

    name: str
    trial: TrialFn
    trials: Tuple[Trial, ...]
    reduce: Optional[ReduceFn] = None

    def __post_init__(self) -> None:
        """Reject functions a worker process could not import."""
        _require_importable(self.name, self.trial, "trial")
        if self.reduce is not None:
            _require_importable(self.name, self.reduce, "reduce")
        keys = [trial.key for trial in self.trials]
        if len(set(keys)) != len(keys):
            raise SpecError(f"spec {self.name!r}: duplicate trial keys")

    @property
    def unit_count(self) -> int:
        """Total number of (cell, seed) executions the spec describes."""
        return sum(trial.runs for trial in self.trials)

    def cell(self, key: str) -> Trial:
        """The trial cell with the given key."""
        for trial in self.trials:
            if trial.key == key:
                return trial
        raise SpecError(f"spec {self.name!r}: no cell {key!r}")


def function_ref(fn: Callable) -> str:
    """The importable ``module:qualname`` reference of a trial function."""
    return f"{fn.__module__}:{getattr(fn, '__qualname__', fn.__name__)}"


#: The directory :func:`code_digest` hashes: the ``repro`` package.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def code_digest(*fns: Optional[Callable]) -> str:
    """BLAKE2b-256 of the code that runs ``fns``.

    Covers the sorted relative paths and bytes of every ``.py`` file under
    :data:`PACKAGE_ROOT`, plus the defining file of any of ``fns`` that
    lives outside it (named by its module, so the digest does not depend
    on where a checkout sits; a function without a readable file adds
    nothing).  A ``functools.wraps`` wrapper counts as the function it
    wraps, whose import reference it carries.  Memoised on the function
    *objects* (held for the life of the process, as module-level
    functions are anyway): the files are read once per trial/reduce pair,
    a reloaded or redefined function is a new object and hashes afresh,
    and the digest names the code that was imported, not whatever the
    files hold mid-run.
    """
    return _code_digest(*map(_unwrapped, fns))


def _unwrapped(fn: Optional[Callable]) -> Optional[Callable]:
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


@functools.lru_cache(maxsize=None)
def _code_digest(*fns: Optional[Callable]) -> str:
    files = {path.relative_to(PACKAGE_ROOT).as_posix(): path
             for path in PACKAGE_ROOT.rglob("*.py")}
    for fn in fns:
        code = getattr(fn, "__code__", None)
        if code is None:
            continue
        path = Path(code.co_filename).resolve()
        if path.is_file() and not path.is_relative_to(PACKAGE_ROOT):
            files[fn.__module__] = path
    digest = blake2b(digest_size=32)
    for name in sorted(files):
        data = files[name].read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _spec_identity(spec: ExperimentSpec) -> Dict[str, Any]:
    """The cell-independent part of a spec's identity."""
    return {
        "name": spec.name,
        "trial": function_ref(spec.trial),
        "reduce": None if spec.reduce is None else function_ref(spec.reduce),
        "code": code_digest(spec.trial, spec.reduce),
    }


def _cell_identity(trial: Trial) -> Dict[str, Any]:
    """The JSON-safe identity of one cell."""
    return {
        "key": trial.key,
        "params": dict(trial.params),
        "seeds": list(trial.seeds),
    }


def fingerprint(spec: ExperimentSpec) -> Dict[str, Any]:
    """The JSON-safe identity of a spec — everything the results depend on."""
    identity = _spec_identity(spec)
    identity["trials"] = [_cell_identity(trial) for trial in spec.trials]
    return identity


def cell_fingerprint(spec: ExperimentSpec, trial: Trial) -> Dict[str, Any]:
    """The JSON-safe identity of one cell of a spec.

    Spec-level fields (name, trial/reduce references, code digest) are
    included so editing the code invalidates every cell, while the
    per-cell fields (key, params, seeds) scope param/seed edits to the
    one cell they touch.
    """
    identity = _spec_identity(spec)
    identity["cell"] = _cell_identity(trial)
    return identity


def _canonical_hash(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return blake2b(canonical.encode("utf-8"), digest_size=32).hexdigest()


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of a spec: BLAKE2b-256 over its canonical fingerprint."""
    return _canonical_hash(fingerprint(spec))


def cell_hash(spec: ExperimentSpec, trial: Trial) -> str:
    """Content address of one cell: BLAKE2b-256 over its canonical fingerprint."""
    return _canonical_hash(cell_fingerprint(spec, trial))


def cell_slug(key: str) -> str:
    """A filesystem-safe rendering of a cell key (not necessarily unique).

    Uniqueness of a cell's file name comes from the hash suffix the store
    appends; the slug exists so humans can tell the files apart.
    """
    slug = re.sub(r"[^A-Za-z0-9._+-]+", "_", key).strip("_")
    return (slug or "cell")[:48]
