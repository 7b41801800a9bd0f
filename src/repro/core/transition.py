"""Transition packages.

A transition package (paper Fig. 7) is what travels from the *cold*
(off-line) side to the *hot* (on-line) side: "the new bricks that must be
integrated into the existing software architecture ... and a script that
operates the transition".

When the repository is hosted on a network node (see
:meth:`repro.core.repository.Repository.attach`), the travel is literal:
the package payload (:func:`package_blob`) crosses the lossy simulated
network in sized chunks (:class:`PackageChunkRequest` /
:class:`PackageChunk`), guarded end-to-end by a per-package checksum
(:func:`package_checksum`).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.components.spec import AssemblyDiff, AssemblySpec, ComponentSpec
from repro.script.ast import TransitionScript
from repro.script.generate import script_from_diff


@dataclass(frozen=True)
class TransitionPackage:
    """New components + the reconfiguration script that installs them."""

    name: str
    source_ftm: str
    target_ftm: str
    script: TransitionScript
    components: Tuple[ComponentSpec, ...]  #: the shipped bricks
    removed: Tuple[str, ...]               #: names of bricks the script deletes

    @property
    def component_count(self) -> int:
        """Number of components this transition replaces/adds (Figure 9 x-axis)."""
        return len(self.components)

    @property
    def size(self) -> int:
        """Package payload size in bytes (drives the fetch/unpack cost)."""
        return sum(spec.size for spec in self.components)

    def spec_index(self) -> Dict[str, ComponentSpec]:
        """Component-name → spec mapping, as the script interpreter wants it."""
        return {spec.name: spec for spec in self.components}

    @property
    def is_empty(self) -> bool:
        return len(self.script) == 0


# ---------------------------------------------------------------------------
# Networked delivery: payload, checksum and the chunk wire format
# ---------------------------------------------------------------------------

#: (package name, size) -> (payload bytes, crc32 of the payload); both are
#: cold-side products, computed once per distinct package per process.
_blob_cache: Dict[Tuple[str, int], Tuple[bytes, int]] = {}


def _payload(package: TransitionPackage) -> Tuple[bytes, int]:
    """The package's ``(blob, crc32(blob))``, derived on first use."""
    key = (package.name, package.size)
    entry = _blob_cache.get(key)
    if entry is None:
        seed = zlib.crc32(
            ":".join([package.name] + sorted(s.name for s in package.components)
                     ).encode("utf-8")
        )
        blob = random.Random(seed).randbytes(max(1, package.size))
        entry = _blob_cache[key] = (blob, zlib.crc32(blob))
    return entry


def package_blob(package: TransitionPackage) -> bytes:
    """The package's byte payload, deterministic in its identity and size.

    The simulation does not ship real class files, but the *bytes on the
    wire* must exist so omission and value faults have something to hit:
    the blob is pseudo-random content derived from the package name, so
    two builds of the same package produce identical payloads (and hence
    identical checksums) while different packages do not collide.
    """
    return _payload(package)[0]


def package_checksum(package: TransitionPackage) -> int:
    """The end-to-end integrity checksum shipped in the package manifest."""
    return _payload(package)[1]


@dataclass(frozen=True)
class PackageChunkRequest:
    """One chunk request from the hot side to the repository host."""

    package_key: Tuple  #: the repository cache key identifying the package
    chunk: int          #: zero-based chunk index
    reply_to: str       #: requesting node
    reply_port: str     #: mailbox for the :class:`PackageChunk` reply


@dataclass(frozen=True)
class PackageChunk:
    """One chunk of package payload travelling cold → hot."""

    name: str
    chunk: int
    total_chunks: int
    data: bytes
    checksum: int             #: crc32 of the whole package blob
    error: Optional[str] = None

    def corrupted(self, data: Any) -> "PackageChunk":
        """A copy with tampered payload (fault-injection helper)."""
        return PackageChunk(
            name=self.name,
            chunk=self.chunk,
            total_chunks=self.total_chunks,
            data=data,
            checksum=self.checksum,
            error=self.error,
        )


def build_package(
    source_ftm: str,
    target_ftm: str,
    source_spec: AssemblySpec,
    target_spec: AssemblySpec,
    composite_name: str = "ftm",
) -> TransitionPackage:
    """Assemble the differential package between two deployed blueprints."""
    diff: AssemblyDiff = source_spec.diff(target_spec)
    script = script_from_diff(
        diff, composite_name, name=f"{source_ftm}-to-{target_ftm}"
    )
    return TransitionPackage(
        name=f"{source_ftm}-to-{target_ftm}",
        source_ftm=source_ftm,
        target_ftm=target_ftm,
        script=script,
        components=diff.new_components(),
        removed=tuple(spec.name for spec in diff.dead_components()),
    )
