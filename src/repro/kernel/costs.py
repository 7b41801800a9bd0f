"""Calibrated virtual-time cost model.

All durations are in **milliseconds of virtual time**.  The constants are
calibrated so the *ratios* reported by the paper's evaluation hold on our
simulated platform (see DESIGN.md, "Expected shapes"):

* deploying a full FTM from scratch takes ~3.8 s per replica (Table 3,
  first row) — dominated by middleware boot plus per-component install;
* a differential transition takes ~0.83–1.19 s depending on how many
  variable-feature components it replaces (Table 3, off-diagonal);
* within a transition, package deployment takes roughly half the time,
  script execution grows from ~19% (1 component) to ~40% (3 components),
  and residual-package removal is a small, roughly constant tail
  (Figure 9).

Nothing in the protocol or adaptation logic reads these constants
directly: they are charged by the component runtime, the script
interpreter and the network, so changing the calibration never changes
behaviour, only timing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs charged by the substrates (milliseconds)."""

    # -- component runtime ---------------------------------------------------
    runtime_boot: float = 950.0          #: booting the middleware on a host
    composite_create: float = 180.0      #: instantiating a composite shell
    component_install: float = 350.0     #: loading + instantiating one component
    component_attach: float = 12.0       #: attaching a package-preloaded component
    component_start: float = 14.0        #: lifecycle start of one component
    component_stop: float = 10.0         #: lifecycle stop (before quiescence wait)
    component_remove: float = 15.0       #: detaching + garbage collecting
    wire_connect: float = 7.0            #: creating one reference-service wire
    wire_disconnect: float = 5.0         #: removing one wire

    # -- reconfiguration scripts ----------------------------------------------
    script_parse: float = 22.0           #: parsing + checking a transition script
    script_step: float = 4.0             #: interpreting one script statement
    script_commit: float = 24.0          #: transactional commit (constraint check)
    script_rollback: float = 45.0        #: undoing a failed transaction

    # -- transition packages ----------------------------------------------------
    package_fetch: float = 270.0         #: fetching a package from the repository
    package_unpack_base: float = 160.0   #: unpacking overhead per package
    package_unpack_component: float = 26.0  #: unpacking one packaged component
    package_remove_base: float = 150.0   #: residual cleanup, fixed part
    package_remove_component: float = 11.0  #: residual cleanup per component

    # -- networked package delivery (resilient transition path) -----------------
    #: Chunk granularity for fetching a package over the network (bytes).
    package_chunk_bytes: int = 4096
    #: Repository-side cost of serving one chunk request.
    package_serve_chunk: float = 2.0
    #: Verifying the per-package checksum after reassembly.
    package_checksum: float = 8.0
    #: How long the fetcher waits for one chunk before retransmitting.
    fetch_timeout: float = 120.0
    #: First retry delay of the capped exponential backoff.
    fetch_retry_base: float = 40.0
    #: Ceiling of the exponential backoff.
    fetch_retry_cap: float = 640.0
    #: Retransmissions allowed per chunk before the fetch gives up.
    fetch_chunk_attempts: int = 5
    #: Whole-package re-fetches allowed after a checksum mismatch.
    fetch_integrity_attempts: int = 3

    # -- network ---------------------------------------------------------------
    link_latency: float = 0.45           #: one-way propagation delay
    link_bandwidth: float = 12_500.0     #: bytes per millisecond (~100 Mbit/s)

    # -- application processing --------------------------------------------------
    checkpoint_capture: float = 1.2      #: capturing application state
    checkpoint_apply: float = 0.9        #: applying a received checkpoint
    assertion_check: float = 0.6         #: evaluating a safety assertion
    result_compare: float = 0.3          #: comparing two computation results

    # -- energy (abstract joule-like units) ---------------------------------------
    energy_per_ms_busy: float = 1.0      #: CPU busy cost
    energy_per_ms_idle: float = 0.08     #: idle draw
    energy_per_byte_sent: float = 0.0004

    # -- stochastic noise ---------------------------------------------------------
    jitter_fraction: float = 0.035       #: ±3.5% noise on every charged cost


#: The default calibration used by tests, examples and the eval modules.
DEFAULT_COSTS = CostModel()
