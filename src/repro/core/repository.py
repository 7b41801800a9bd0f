"""The FTM & Adaptation Repository (the *cold* side of Figure 7).

The repository is where off-line development lands: FTM blueprints and
validated transition packages.  Packages are validated **off-line**
(paper Sec. 4.3: "any update impacts the FTM that must be validated
off-line before it can be used") by statically simulating the script
against the source architecture; a package that fails validation never
reaches the Adaptation Engine.

The repository also implements the agility story of Sec. 6.2: an FTM
*unknown at design time* can be registered during operation
(:meth:`register_ftm`) and becomes a transition target like any other.

A repository may additionally be *hosted* on a network node
(:meth:`attach`): the package then travels from the cold side to the hot
side over the lossy simulated network in sized chunks, which is what the
resilient transition path of the Adaptation Engine (retry/backoff,
checksum guard, degraded fallback) exercises.  An unattached repository
behaves as before — the fetch is a flat local cost.

The cold work itself — blueprints, differential script, off-line
validation — runs once per *process*, not once per simulated world:
packages between catalogue FTMs live in one build-once table
(:func:`catalogue_package`) that every :class:`Repository` reads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.components.spec import AssemblySpec
from repro.core.errors import PackageRejected
from repro.core.transition import (
    PackageChunk,
    PackageChunkRequest,
    TransitionPackage,
    build_package,
    package_blob,
    package_checksum,
)
from repro.ftm.catalog import ftm_assembly
from repro.script.validate import validate_script

#: The well-known port the hosted repository serves chunk requests on.
PACKAGE_PORT = "package"


def spec_architecture(spec: AssemblySpec) -> Dict:
    """The architecture snapshot a blueprint would have once deployed."""
    return {
        "name": spec.name,
        "components": {component.name: "started" for component in spec.components},
        "wires": [
            (w.source, w.reference, w.target, w.service) for w in spec.wires
        ],
        "promotions": {
            p.external: (p.component, p.service) for p in spec.promotions
        },
    }


#: Builds one replica-side blueprint: (ftm, role, peer) -> AssemblySpec.
SpecBuilder = Callable[..., AssemblySpec]


def validate_package(
    package: TransitionPackage, source_spec: AssemblySpec
) -> List[str]:
    """Off-line validation: statically simulate the script."""
    architecture = {source_spec.name: spec_architecture(source_spec)}
    return validate_script(
        package.script,
        architecture,
        [spec.name for spec in package.components],
    )


def _validated_package(
    spec: SpecBuilder,
    source_ftm: str,
    target_ftm: str,
    role: str,
    peer: str,
    app: str,
    assertion: str,
    composite: str,
) -> TransitionPackage:
    """Both blueprints, their differential package, off-line validation."""
    common = dict(
        role=role, peer=peer, app=app, assertion=assertion, composite=composite
    )
    source_spec = spec(source_ftm, **common)
    target_spec = spec(target_ftm, **common)
    package = build_package(
        source_ftm, target_ftm, source_spec, target_spec, composite
    )
    problems = validate_package(package, source_spec)
    if problems:
        raise PackageRejected(problems)
    return package


@lru_cache(maxsize=None)
def catalogue_package(
    source_ftm: str,
    target_ftm: str,
    role: str,
    peer: str,
    app: str,
    assertion: str,
    composite: str,
) -> TransitionPackage:
    """The validated package between two *catalogue* FTMs, built once.

    Memoized per process like :func:`ftm_assembly`: a package is a
    deeply frozen value (frozen dataclasses over tuples) fully
    determined by its key, so every world of a campaign shares one
    validated object instead of re-running the cold side.  A rejection
    raises :class:`PackageRejected` and is *not* memoized — the next
    call validates again.
    """
    return _validated_package(
        ftm_assembly, source_ftm, target_ftm, role, peer, app, assertion, composite
    )


class Repository:
    """Blueprint + package store with off-line validation."""

    def __init__(self, spec_builder: SpecBuilder = ftm_assembly):
        self._spec_builder = spec_builder
        self._custom_ftms: Dict[str, SpecBuilder] = {}
        self._cache: Dict[Tuple, TransitionPackage] = {}
        self.packages_built = 0
        self.packages_rejected = 0
        self.host: Optional[str] = None
        self.chunks_served = 0
        self._world = None

    # -- network hosting: the cold side becomes a real node ------------------------

    def attach(self, world, node_name: str = "repository"):
        """Host this repository on a node of ``world`` and serve packages.

        Once attached, the Adaptation Engine fetches transition packages
        over ``world.network`` in :attr:`CostModel.package_chunk_bytes`
        chunks instead of charging a flat local cost — subject to the
        network's omission faults and the fault injector's corruptions.
        The server is pinned to the node (a repository crash stops it;
        a restart resumes serving).  Returns the host node.
        """
        if self.host is not None:
            raise ValueError(f"repository already hosted on {self.host!r}")
        node = world.cluster.nodes.get(node_name)
        if node is None:
            node = world.add_node(node_name)
        self.host = node_name
        self._world = world
        self._spawn_server(node)
        node.on_restart(self._spawn_server)
        return node

    def _spawn_server(self, node) -> None:
        mailbox = self._world.network.bind(node.name, PACKAGE_PORT)
        node.spawn(self._serve(node, mailbox), name="repo-server")

    def _serve(self, node, mailbox) -> Generator:
        """The chunk server loop (one process on the repository host)."""
        network = self._world.network
        costs = self._world.costs
        chunk_bytes = costs.package_chunk_bytes
        while True:
            message = yield mailbox.get()
            request: PackageChunkRequest = message.payload
            yield node.compute_charge(costs.package_serve_chunk)
            try:
                package = self.transition_package(*request.package_key)
            except Exception as exc:  # noqa: BLE001 - reported to the fetcher
                reply = PackageChunk(
                    name="?", chunk=request.chunk, total_chunks=0,
                    data=b"", checksum=0, error=str(exc),
                )
                network.send(node.name, request.reply_to, request.reply_port,
                             reply, size=96)
                continue
            blob = package_blob(package)
            total = max(1, math.ceil(len(blob) / chunk_bytes))
            start = request.chunk * chunk_bytes
            data = blob[start:start + chunk_bytes]
            reply = PackageChunk(
                name=package.name,
                chunk=request.chunk,
                total_chunks=total,
                data=data,
                checksum=package_checksum(package),
            )
            self.chunks_served += 1
            network.send(node.name, request.reply_to, request.reply_port,
                         reply, size=len(data) + 64)

    # -- agility: FTMs developed during operational life -------------------------

    def register_ftm(self, name: str, spec_builder: SpecBuilder) -> None:
        """Register an FTM developed off-line *after* initial deployment.

        ``spec_builder(role=..., peer=..., app=..., assertion=...,
        composite=...)`` must return the replica-side blueprint.
        """
        if name in self._custom_ftms:
            raise ValueError(f"FTM {name!r} already registered")
        self._custom_ftms[name] = spec_builder

    def knows(self, ftm: str) -> bool:
        """Can this repository build blueprints for the FTM?"""
        if ftm in self._custom_ftms:
            return True
        try:
            self.spec(ftm, role="master", peer="_probe")
            return True
        except Exception:  # noqa: BLE001 - unknown FTM
            return False

    def spec(self, ftm: str, **kwargs) -> AssemblySpec:
        """A replica-side blueprint for the FTM (catalog or custom)."""
        builder = self._custom_ftms.get(ftm, self._spec_builder)
        return builder(ftm, **kwargs) if builder is self._spec_builder else builder(**kwargs)

    # -- packages -----------------------------------------------------------------

    def transition_package(
        self,
        source_ftm: str,
        target_ftm: str,
        role: str,
        peer: str,
        app: str = "counter",
        assertion: str = "always-true",
        composite: str = "ftm",
    ) -> TransitionPackage:
        """Build (or fetch from cache) the validated differential package.

        Catalogue packages come from the process-wide
        :func:`catalogue_package` table; an FTM added with
        :meth:`register_ftm` or a custom ``spec_builder`` is private to
        this repository and built here.  Either way ``_cache`` records
        what *this* repository admitted.
        """
        key = (source_ftm, target_ftm, role, peer, app, assertion, composite)
        if key in self._cache:
            return self._cache[key]

        shared = (
            self._spec_builder is ftm_assembly
            and source_ftm not in self._custom_ftms
            and target_ftm not in self._custom_ftms
        )
        try:
            if shared:
                package = catalogue_package(*key)
            else:
                package = _validated_package(self.spec, *key)
        except PackageRejected:
            self.packages_rejected += 1
            raise

        self.packages_built += 1
        self._cache[key] = package
        return package

    def validate(
        self, package: TransitionPackage, source_spec: AssemblySpec
    ) -> List[str]:
        """Off-line validation: statically simulate the script."""
        return validate_package(package, source_spec)
