"""A persistent, content-addressed, cell-granular store for results.

Layout: one directory per spec name under a root (default
``.repro-results/`` in the working directory), one JSON file per *cell*
plus an advisory spec-level manifest::

    .repro-results/
      table3/
        manifest.json                 # spec hash + cell index (written last)
        deploy_pbr-1a2b3c4d5e6f.json  # one atomic file per cell
        pbr-_lfr-0f9e8d7c6b5a.json

Each cell file is keyed by :func:`repro.exp.spec.cell_hash`, which covers
the spec identity (name, version, trial/reduce source) plus that cell's
key, params and seeds — editing one cell invalidates exactly one file, so
the runner recomputes only the delta and a killed run resumes from the
cells it already wrote.  The manifest names the cells of the last
*completed* run; cell files are self-describing, so a partial run with no
(or a stale) manifest is still fully resumable.

Cell payload schema::

    {
      "cell_hash":   "<full sha-256 cell hash>",
      "fingerprint": { ... cell identity, human-inspectable ... },
      "meta":        { "jobs": ..., ... },
      "values":      [ <per-run result>, ... ]   # or the reduced summary
    }

Manifest schema::

    {
      "hash":        "<full sha-256 spec hash>",
      "fingerprint": { ... spec identity ... },
      "meta":        { "jobs": ..., "elapsed_s": ..., ... },
      "cells":       { "<cell key>": {"file": ..., "hash": ...}, ... }
    }
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.exp import spec as spec_mod

#: Default store location, relative to the current working directory.
DEFAULT_ROOT = ".repro-results"

#: Name of the spec-level index file inside each spec directory.
MANIFEST_NAME = "manifest.json"


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Parse a JSON payload, or ``None`` on any I/O or syntax problem."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class ResultStore:
    """Load/save experiment results keyed by per-cell content hash."""

    def __init__(self, root: Optional[str] = None):
        self.root = Path(root if root is not None else DEFAULT_ROOT)

    # -- paths -------------------------------------------------------------

    def spec_dir(self, spec: "spec_mod.ExperimentSpec") -> Path:
        """The directory holding ``spec``'s cell files and manifest."""
        return self.root / spec.name

    def manifest_path(self, spec: "spec_mod.ExperimentSpec") -> Path:
        """The spec-level manifest file (may not exist yet)."""
        return self.spec_dir(spec) / MANIFEST_NAME

    def _cell_address(self, spec: "spec_mod.ExperimentSpec",
                      trial: "spec_mod.Trial") -> Tuple[str, Path]:
        """One cell's ``(hash, path)`` — derived once per store call."""
        digest = spec_mod.cell_hash(spec, trial)
        slug = spec_mod.cell_slug(trial.key)
        return digest, self.spec_dir(spec) / f"{slug}-{digest[:12]}.json"

    def cell_path(self, spec: "spec_mod.ExperimentSpec",
                  trial: "spec_mod.Trial") -> Path:
        """The file one cell's values live in (may not exist yet)."""
        return self._cell_address(spec, trial)[1]

    # -- atomic writes -----------------------------------------------------

    def _write_atomic(self, path: Path, payload: Dict[str, Any]) -> Path:
        """Write a payload through a temp file + rename (crash-safe)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(payload, tmp, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # -- per-cell API ------------------------------------------------------

    def load_cell(self, spec: "spec_mod.ExperimentSpec",
                  trial: "spec_mod.Trial") -> Optional[Any]:
        """Stored values of one cell, or ``None`` on miss/corruption."""
        digest, path = self._cell_address(spec, trial)
        payload = _read_json(path)
        if payload is None or payload.get("cell_hash") != digest:
            return None
        if "values" not in payload:
            return None
        values = payload["values"]
        if spec.reduce is None:
            # un-reduced cells must be one JSON value per seeded run
            if not isinstance(values, list) or len(values) != trial.runs:
                return None
        return values

    def save_cell(self, spec: "spec_mod.ExperimentSpec",
                  trial: "spec_mod.Trial", values: Any,
                  meta: Optional[Dict[str, Any]] = None) -> Path:
        """Atomically persist one completed cell; returns the cell path."""
        digest, path = self._cell_address(spec, trial)
        payload = {
            "cell_hash": digest,
            "fingerprint": spec_mod.cell_fingerprint(spec, trial),
            "meta": dict(meta or {}),
            "values": values,
        }
        return self._write_atomic(path, payload)

    def load_cells(self, spec: "spec_mod.ExperimentSpec") -> Dict[str, Any]:
        """Every stored cell of ``spec`` — possibly a partial subset.

        Cells persisted by an interrupted run are found even when no
        manifest was written.
        """
        found: Dict[str, Any] = {}
        for trial in spec.trials:
            values = self.load_cell(spec, trial)
            if values is not None:
                found[trial.key] = values
        return found

    def write_manifest(self, spec: "spec_mod.ExperimentSpec",
                       meta: Optional[Dict[str, Any]] = None) -> Path:
        """Record the spec-level index over the cells present on disk."""
        cells: Dict[str, Dict[str, str]] = {}
        for trial in spec.trials:
            digest, path = self._cell_address(spec, trial)
            if path.is_file():
                cells[trial.key] = {"file": path.name, "hash": digest}
        payload = {
            "hash": spec_mod.spec_hash(spec),
            "fingerprint": spec_mod.fingerprint(spec),
            "meta": dict(meta or {}),
            "cells": cells,
        }
        return self._write_atomic(self.manifest_path(spec), payload)

    def manifest_covers(self, spec: "spec_mod.ExperimentSpec",
                        digest: str) -> bool:
        """True when the manifest on disk records spec hash ``digest`` and
        every cell — false when it is missing, torn, stale or partial."""
        payload = _read_json(self.manifest_path(spec))
        if payload is None or payload.get("hash") != digest:
            return False
        cells = payload.get("cells")
        return (isinstance(cells, dict)
                and cells.keys() == {trial.key for trial in spec.trials})

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry; returns the number of files removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.rglob("*"), reverse=True):
            try:
                if path.is_dir():
                    path.rmdir()
                else:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def gc(self) -> int:
        """Remove orphaned cell files and stale temp files.

        A cell file is an orphan when its spec directory has a manifest
        that does not reference it — the leftover of an edited cell or a
        changed trial function.  Directories *without* a manifest are
        left alone (they may be a killed run awaiting resume); stale
        ``*.tmp`` files are always removed.  Returns the number of files
        deleted.  Run it when no experiment is in flight.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for entry in sorted(self.root.iterdir()):
            if entry.is_file():
                if entry.suffix == ".tmp":
                    removed += self._unlink(entry)
                continue
            manifest = _read_json(entry / MANIFEST_NAME)
            referenced = None
            if manifest is not None and isinstance(manifest.get("cells"), dict):
                referenced = {
                    cell.get("file")
                    for cell in manifest["cells"].values()
                    if isinstance(cell, dict)
                }
            for path in sorted(entry.iterdir()):
                if path.name == MANIFEST_NAME:
                    continue
                if path.suffix == ".tmp":
                    removed += self._unlink(path)
                elif referenced is not None and path.name not in referenced:
                    removed += self._unlink(path)
        return removed

    @staticmethod
    def _unlink(path: Path) -> int:
        try:
            path.unlink()
            return 1
        except OSError:
            return 0

    def entries(self) -> List[Dict[str, Any]]:
        """A digest of every stored entry (name, hash, cells, meta).

        Spec directories appear once each; a directory whose manifest is
        missing (killed run) is reported with a ``None`` hash and the
        count of cell files found.  Loose files at the root are skipped.
        """
        out: List[Dict[str, Any]] = []
        if not self.root.is_dir():
            return out
        for entry in sorted(self.root.iterdir()):
            if entry.is_file():
                continue
            cell_files = [
                p for p in entry.glob("*.json") if p.name != MANIFEST_NAME
            ]
            manifest = _read_json(entry / MANIFEST_NAME)
            if manifest is None:
                out.append(
                    {
                        "file": entry.name + "/",
                        "spec": entry.name,
                        "hash": None,
                        "cells": len(cell_files),
                        "meta": {},
                        "format": "cells (no manifest)",
                    }
                )
                continue
            fingerprint = manifest.get("fingerprint", {})
            out.append(
                {
                    "file": f"{entry.name}/{MANIFEST_NAME}",
                    "spec": fingerprint.get("name", entry.name),
                    "hash": manifest.get("hash"),
                    "cells": len(manifest.get("cells", {})),
                    "meta": manifest.get("meta", {}),
                    "format": "cells",
                }
            )
        return out
