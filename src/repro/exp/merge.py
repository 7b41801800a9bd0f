"""Deterministic post-hoc merge of partitioned result stores.

Multi-coordinator campaigns (``repro campaign --coordinators N``) split a
spec's cells round-robin over N coordinator processes, each driving its
own worker subset and writing its own **store partition**
(``<root>.part0``, ``<root>.part1``, ...).  This module reunites them:

* :func:`split_spec` — the round-robin cell split.  ``cell_hash`` covers
  the spec identity plus *that cell's* key/params/seeds — never its
  siblings — so a sub-spec containing a subset of the trials produces
  **byte-identical cell files** under the same content-addressed names.
  That is the whole trick: partitions are disjoint slices of exactly the
  store a single coordinator would have written.
* :func:`merge_stores` — the union.  Content addressing makes it
  conflict-free by construction: two partitions can only collide on a
  cell file if they hold the same cell, and then the bytes must be
  equal (anything else is corruption, reported as a
  :class:`MergeConflict`, never silently resolved).  Cell files are
  copied in sorted (spec, file-name) order — i.e. ordered by cell slug —
  so the merge itself is deterministic.
* :func:`run_multi_coordinator` — the driver.  Spawns one process per
  coordinator, waits, merges the partitions, then replays the spec
  against the merged store (a pure cache hit) to assemble the final
  :class:`~repro.exp.runner.ExperimentResult` — which is therefore
  *byte-identical* to a single-coordinator serial run, the invariant CI
  asserts.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exp.errors import DistributedError, ExperimentError
from repro.exp.spec import ExperimentSpec
from repro.exp.store import MANIFEST_NAME, ResultStore, file_digest


class MergeConflict(ExperimentError):
    """Two store partitions disagree on the bytes of one cell file.

    Content-addressed names make this impossible for honest partitions
    (same name ⇒ same cell identity ⇒ same pure-function values), so a
    conflict always means corruption or a mixed-source merge — it is
    raised, never resolved by picking a side.
    """


def split_spec(spec: ExperimentSpec, parts: int) -> List[ExperimentSpec]:
    """Split a spec's cells round-robin into ``parts`` sub-specs.

    Every sub-spec shares the parent's name, version and trial/reduce
    functions, so each cell's ``cell_hash`` — and therefore its store
    file name *and bytes* — is unchanged.  Cells are dealt
    ``trials[i::parts]``, which keeps shard sizes balanced within one
    for the homogeneous cells campaigns generate.
    """
    if parts < 1:
        raise ExperimentError(f"cannot split a spec into {parts} parts")
    parts = min(parts, len(spec.trials)) or 1
    return [
        ExperimentSpec(
            name=spec.name,
            trial=spec.trial,
            trials=tuple(spec.trials[i::parts]),
            version=spec.version,
            reduce=spec.reduce,
        )
        for i in range(parts)
    ]


def partition_roots(root: str, parts: int) -> List[Path]:
    """The partition directories of a store root: ``<root>.part<i>``.

    Siblings of the root, never inside it — the store's own directory
    walkers (``entries``, ``gc``) must not see half-merged partitions.
    """
    base = Path(root)
    return [base.with_name(f"{base.name}.part{i}") for i in range(parts)]


def merge_stores(sources: Sequence[Any], dest: Any) -> Dict[str, Any]:
    """Union the cell files of ``sources`` into the ``dest`` store root.

    Deterministic: partitions are processed in the given order and each
    partition's spec directories and cell files in sorted order (sorted
    file names = ordered by cell slug).  A cell file already present in
    ``dest`` must be byte-identical — content addressing guarantees it
    for honest partitions — otherwise :class:`MergeConflict` is raised.
    Partition manifests are *not* copied: they describe sub-specs; the
    caller writes the full-spec manifest after the merge (the driver
    does).  Returns a summary dict with ``files_copied``,
    ``files_identical`` and the spec names touched.
    """
    dest_root = Path(dest.root if isinstance(dest, ResultStore) else dest)
    copied = 0
    identical = 0
    specs: List[str] = []
    for source in sources:
        source_root = Path(
            source.root if isinstance(source, ResultStore) else source)
        if not source_root.is_dir():
            continue
        for spec_dir in sorted(p for p in source_root.iterdir() if p.is_dir()):
            if spec_dir.name not in specs:
                specs.append(spec_dir.name)
            dest_dir = dest_root / spec_dir.name
            for cell_file in sorted(spec_dir.glob("*.json")):
                if cell_file.name == MANIFEST_NAME:
                    continue
                target = dest_dir / cell_file.name
                if target.is_file():
                    if file_digest(target) != file_digest(cell_file):
                        raise MergeConflict(
                            f"merge conflict on {spec_dir.name}/"
                            f"{cell_file.name}: partitions disagree on the "
                            f"bytes of a content-addressed cell file"
                        )
                    identical += 1
                    continue
                dest_dir.mkdir(parents=True, exist_ok=True)
                # byte-level copy: the cell file's exact bytes ARE its
                # identity; re-serialising here could only break that
                shutil.copyfile(cell_file, target)
                copied += 1
    return {
        "files_copied": copied,
        "files_identical": identical,
        "specs": sorted(specs),
    }


def _coordinator_main(spec: ExperimentSpec, store_root: str,
                      workers: Sequence[str], jobs: int,
                      batch: Optional[int], mode: str) -> None:
    """One coordinator process: run its sub-spec against its partition."""
    from repro.exp import runner
    from repro.exp.distributed import RemoteBackend

    backend = RemoteBackend(list(workers), mode=mode)
    store = ResultStore(store_root)
    result = runner.run(
        spec, jobs=jobs, store=store, backend=backend, batch=batch,
    )
    summary_path = Path(store_root) / "coordinator.json"
    summary_path.write_text(
        json.dumps(result.summary(), indent=1), encoding="utf-8")


def run_multi_coordinator(
    spec: ExperimentSpec,
    workers: Sequence[str],
    store_root: str,
    coordinators: int = 2,
    jobs: int = 1,
    batch: Optional[int] = None,
    mode: str = "digest",
    keep_partitions: bool = False,
) -> Tuple[Any, Dict[str, Any]]:
    """Run ``spec`` under N coordinators and merge their partitions.

    The workers are dealt round-robin to the coordinators
    (``workers[i::N]``), so every coordinator needs at least one —
    ``coordinators`` is clamped to ``len(workers)`` (and to the cell
    count).  Each coordinator writes ``<store_root>.part<i>``; after all
    exit cleanly the partitions are merged into ``store_root``, the
    full-spec manifest is written, and the spec is replayed against the
    merged store — a pure cache hit — to assemble the returned
    :class:`~repro.exp.runner.ExperimentResult`.  Partitions are removed
    after a successful merge unless ``keep_partitions``.

    Returns ``(result, info)`` where ``info`` carries the per-coordinator
    summaries (digest/wire counters included) and the merge summary.
    """
    from repro.exp import runner

    if not workers:
        raise DistributedError("multi-coordinator runs need workers")
    parts = max(1, min(int(coordinators), len(workers), len(spec.trials) or 1))
    subs = split_spec(spec, parts)
    roots = partition_roots(store_root, parts)
    worker_sets = [list(workers[i::parts]) for i in range(parts)]
    processes: List[multiprocessing.Process] = []
    for i, (sub, root, wset) in enumerate(zip(subs, roots, worker_sets)):
        process = multiprocessing.Process(
            target=_coordinator_main,
            args=(sub, str(root), wset, jobs, batch, mode),
            name=f"repro-coordinator-{i}",
        )
        processes.append(process)
        process.start()
    failures: List[str] = []
    for i, process in enumerate(processes):
        process.join()
        if process.exitcode != 0:
            failures.append(f"coordinator {i} exited {process.exitcode}")
    if failures:
        raise DistributedError(
            f"multi-coordinator run failed: {'; '.join(failures)}"
        )
    summaries: List[Dict[str, Any]] = []
    for root in roots:
        summary_path = Path(root) / "coordinator.json"
        try:
            summaries.append(
                json.loads(summary_path.read_text(encoding="utf-8")))
        except (OSError, ValueError):
            summaries.append({})
    store = ResultStore(store_root)
    merged = merge_stores([str(root) for root in roots], store)
    result = runner.run(spec, jobs=1, store=store, backend="serial")
    if result.cache_state != "full":
        raise DistributedError(
            f"merged store is incomplete: cache_state={result.cache_state!r} "
            f"({result.cells_cached}/{len(spec.trials)} cells)"
        )
    store.write_manifest(spec, meta={
        "jobs": jobs, "backend": "remote", "coordinators": parts,
    })
    # the replay is a pure cache hit; report the distributed execution
    # that actually produced the cells, not the replay's bookkeeping
    result.backend = "remote"
    result.cells_acked_digest = sum(
        s.get("cells_acked_digest", 0) for s in summaries)
    result.cells_shipped_full = sum(
        s.get("cells_shipped_full", 0) for s in summaries)
    result.wire_bytes_in = sum(s.get("wire_bytes_in", 0) for s in summaries)
    result.wire_bytes_out = sum(s.get("wire_bytes_out", 0) for s in summaries)
    result.executed = sum(s.get("trials_executed", 0) for s in summaries)
    result.cells_executed = sum(s.get("cells_executed", 0) for s in summaries)
    if not keep_partitions:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
    info = {
        "coordinators": parts,
        "workers": [len(w) for w in worker_sets],
        "merge": merged,
        "per_coordinator": summaries,
        "cells_acked_digest": sum(
            s.get("cells_acked_digest", 0) for s in summaries),
        "cells_shipped_full": sum(
            s.get("cells_shipped_full", 0) for s in summaries),
        "wire_bytes_in": sum(s.get("wire_bytes_in", 0) for s in summaries),
        "wire_bytes_out": sum(s.get("wire_bytes_out", 0) for s in summaries),
    }
    return result, info
