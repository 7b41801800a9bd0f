"""The gray-failure matrix: limplock sweeps over (FTM × resource × factor).

One gray mission = an FTM pair under a constant client load whose primary
starts *limping* mid-run: one resource (cpu / link / disk) silently runs
``factor``× slower while the node stays up and its heartbeats keep
flowing.  The proactive stack (Monitoring Engine latency probe +
Resilience Manager) must

* **detect** the limp from the p99 request latency — never from the
  crash detector (``peer_suspected`` must stay at zero: slow ≠ dead);
* **transition** to a limp-tolerant FTM (PBR → LFR) when the current
  one cannot serve acceptably from a limping replica;
* keep **masking**: every request still succeeds exactly once.

The campaign shards missions into :class:`~repro.exp.ExperimentSpec`
cells over the (FTM × resource × factor) grid and reports detection and
masking rates with Wilson score intervals, plus the mean detection
latency and the post-limp SLO-miss fraction (the "unavailability" a
limplock causes even though nothing is down).

The classic resource probes (bandwidth, CPU saturation) are disabled in
gray missions so every detection is attributable to the latency
percentile probe — the instrument under study.

Every mission outcome carries a ``trace_digest`` — a stable hash of the
world's full event trace — so store byte-identity across executor
backends also certifies event-order identity.
"""

from __future__ import annotations

from _blake2 import blake2b
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.eval.format import render_table
from repro.eval.mission import pair_task, run_solo
from repro.eval.stats import format_interval, wilson_interval
from repro.exp import ExperimentSpec, Trial
from repro.vocabulary import SLOW_RESOURCES

if TYPE_CHECKING:
    from repro.core.monitoring import Thresholds
    from repro.core.parameters import SystemContext
    from repro.kernel import WorldTask

#: FTMs the matrix sweeps: PBR must *transition away* under a limp
#: (checkpoint-heavy, not limp-tolerant); LFR rides it out in place.
GRAY_FTMS = ("pbr", "lfr")

#: Slowdown factors: ×4 is a mild limp, ×8 a textbook limplock.
GRAY_FACTORS = (4.0, 8.0)

#: Healthy requests a gray mission sends before its primary limps.
GRAY_WARMUP = 20


def trace_digest(world) -> str:
    """A stable digest of the world's full event trace.

    Byte-identical digests mean identical event sequences — the
    determinism tests compare this across repeated runs and across
    executor backends.
    """
    # one update of the joined text: blake2b streams, so the bytes (and
    # the digest) are those of one update per record
    text = "".join([
        f"{record.time!r}|{record.category}|{record.event}|{record.details!r}\n"
        for record in world.trace.records
    ])
    return blake2b(text.encode(), digest_size=16).hexdigest()


def gray_thresholds() -> Thresholds:
    """Probe thresholds for gray missions.

    The band is calibrated to the cost model and the probe's vantage
    point: the traced ``request_served`` latency is *serve-side* (it
    excludes the reply's return leg), so a healthy PBR/LFR pair lands in
    the 8 ms digest bucket while any ×4 limp of a resource the FTM
    actually exercises lands at 11.3 ms or above.  The bandwidth and CPU
    probes are disabled (thresholds that can never trip) so the latency
    percentile probe is the only detector in play.
    """
    from repro.core.monitoring import Thresholds

    return Thresholds(
        bandwidth_low=0.0,       # bandwidth probe: never scarce
        bandwidth_high=1.0,
        cpu_saturated=1.01,      # CPU probe: utilisation is capped at 1.0
        limp_p99_ms=10.0,        # limping: p99 above 10 ms for 3 samples
        limp_clear_p99_ms=9.0,   # recovered: p99 back below 9 ms
        limp_sustain_samples=3,
    )


def _context_for(ftm: str) -> SystemContext:
    """The (FT, A, R) context under which ``ftm`` is the valid choice.

    LFR missions start from a bandwidth-scarce context (how a real system
    lands on LFR), so the auto-approving manager does not immediately
    swap back to the cheaper PBR on the first unrelated trigger.
    """
    from repro.core.parameters import SystemContext

    context = SystemContext()
    if ftm != "pbr":
        context = context.with_r(context.r.with_update(bandwidth_ok=False))
    return context


@dataclass
class GrayOutcome:
    """What one gray mission observed (JSON-safe via ``asdict``)."""

    seed: int
    ftm: str = "pbr"
    resource: str = "link"
    factor: float = 8.0
    proactive: bool = True
    sent: int = 0
    ok: int = 0
    errors: int = 0
    detected: bool = False
    detection_latency_ms: Optional[float] = None
    transitioned: bool = False
    final_ftm: str = ""
    pending_proposals: int = 0
    peer_suspected: int = 0
    post_requests: int = 0
    slo_misses: int = 0
    masked: bool = False
    trace_digest: str = ""

    @property
    def unavailability(self) -> float:
        """Post-limp SLO-miss fraction — gray-failure 'downtime'."""
        if self.post_requests == 0:
            return 0.0
        return self.slo_misses / self.post_requests


def gray_task(
    seed: int,
    ftm: str = "pbr",
    resource: str = "link",
    factor: float = 8.0,
    requests: int = 200,
    warmup: int = GRAY_WARMUP,
    period_ms: float = 40.0,
    slo_ms: float = 30.0,
    proactive: bool = True,
) -> WorldTask:
    """One gray mission as an unrun :class:`WorldTask`.

    After ``warmup`` healthy requests the primary starts limping
    (``resource`` × ``factor``) and stays limping to the end — a true
    limplock, not a transient.  ``proactive=False`` runs the same
    mission without the monitoring stack: the reactive baseline that can
    only ever react to crashes (which never come).

    Missions are long (200 requests ≈ 10 s of load) on purpose: the
    limping resource slows the *transition itself* (package fetch,
    unpack, and checkpointing all run on the degraded node), so a
    proactive PBR→LFR under a ×8 disk limp needs ~5 s from trigger to
    ``transition_complete`` — the mission must outlive its own repair.

    The System Manager is deliberately **not** auto-approving: the
    mandatory escape (PBR is invalid on a limping replica) executes on
    its own, but once LFR masks the limp the probe reports the node
    recovered, and the now-merely-possible revert to PBR must wait for
    the manager — otherwise the pair oscillates PBR→LFR→PBR→… for as
    long as the gray fault persists (the paper's man-in-the-loop
    argument, reproduced here by a limplock instead of a flapping link).
    The platform is :func:`~repro.eval.mission.pair_task`'s.  Raises
    :class:`ValueError` unless ``requests`` exceeds ``warmup``: a
    mission must send requests after its limp starts.
    """
    from repro.app.workloads import constant
    from repro.core import (
        AdaptationEngine,
        MonitoringEngine,
        ResilienceManager,
        SystemManager,
    )
    from repro.kernel import Fault, Timeout

    if requests <= warmup:
        raise ValueError(
            f"requests ({requests}) must exceed the warm-up ({warmup})")
    # a window open since t=0: armed at the limp's start, it fires at once
    limp = Fault("slow", "alpha", resource=resource, factor=factor)
    outcome = GrayOutcome(seed=seed, ftm=ftm, resource=resource,
                          factor=factor, proactive=proactive)

    def run(world, pair, client):
        monitoring = MonitoringEngine(
            world, ["alpha", "beta"],
            period=100.0, thresholds=gray_thresholds(),
        )
        manager = SystemManager(auto_approve=False)
        if proactive:
            engine = AdaptationEngine(world, pair)
            resilience = ResilienceManager(
                world, engine, monitoring, _context_for(ftm),
                system_manager=manager,
            )
            monitoring.start()
            resilience.start()
        yield from constant(client, count=warmup, period_ms=period_ms)
        limp_start = world.now
        world.faults.arm(limp)
        yield from constant(client, count=requests - warmup, period_ms=period_ms)
        yield Timeout(500.0)  # let the last probe window close

        outcome.sent = client.sent
        outcome.ok = client.ok
        outcome.errors = client.errors
        limps = [t for t in monitoring.trigger_history
                 if t.event == "node-limping"]
        outcome.detected = bool(limps)
        if limps:
            outcome.detection_latency_ms = round(
                limps[0].time - limp_start, 3
            )
        outcome.transitioned = (
            world.trace.count("adaptation", "transition_complete") > 0
        )
        outcome.final_ftm = pair.ftm
        outcome.pending_proposals = len(manager.pending)
        outcome.peer_suspected = world.trace.count("ftm", "peer_suspected")
        post = client.latencies_ms[warmup:]
        outcome.post_requests = len(post)
        outcome.slo_misses = sum(
            1 for latency in post if latency > slo_ms
        )
        outcome.masked = client.all_ok
        outcome.trace_digest = trace_digest(world)
        return asdict(outcome)

    return pair_task(seed, ftm, run, client="c-gray", timeout=2_000.0,
                     max_attempts=6)


def _trial(seed: int, params: Mapping) -> Dict:
    """One gray mission as a plain dict (JSON-safe for the store)."""
    return run_solo(gray_task(seed, **dict(params)))


def _reduce_cell(values: List[Dict]) -> Dict:
    """Collapse one cell's mission outcomes to streaming counts."""
    outcomes = [GrayOutcome(**raw) for raw in values]
    latencies = [o.detection_latency_ms for o in outcomes
                 if o.detection_latency_ms is not None]
    return {
        "ftm": outcomes[0].ftm if outcomes else "",
        "resource": outcomes[0].resource if outcomes else "",
        "factor": outcomes[0].factor if outcomes else 0.0,
        "missions": len(outcomes),
        "sent": sum(o.sent for o in outcomes),
        "ok": sum(o.ok for o in outcomes),
        "errors": sum(o.errors for o in outcomes),
        "detected": sum(1 for o in outcomes if o.detected),
        "detection_latency_sum_ms": round(sum(latencies), 3),
        "detection_latency_count": len(latencies),
        "transitioned": sum(1 for o in outcomes if o.transitioned),
        "pending_proposals": sum(o.pending_proposals for o in outcomes),
        "peer_suspected": sum(o.peer_suspected for o in outcomes),
        "post_requests": sum(o.post_requests for o in outcomes),
        "slo_misses": sum(o.slo_misses for o in outcomes),
        "masked": sum(1 for o in outcomes if o.masked),
        "final_ftms": sorted({o.final_ftm for o in outcomes}),
        "trace_digests": [o.trace_digest for o in outcomes],
    }


def spec(
    missions: int = 3,
    base_seed: int = 41_000,
    ftms=GRAY_FTMS,
    resources=SLOW_RESOURCES,
    factors=GRAY_FACTORS,
    requests: int = 200,
    warmup: int = GRAY_WARMUP,
    period_ms: float = 40.0,
    slo_ms: float = 30.0,
) -> ExperimentSpec:
    """The gray matrix: one cell per (FTM × resource × factor).

    Every cell runs the same mission seed sequence (the proactive stack
    always on), so two cells differ only in the grid parameters — and the
    whole spec runs unchanged on any executor backend with a
    byte-identical store.
    """
    seeds = tuple(base_seed + 211 * m for m in range(missions))
    trials = tuple(
        Trial(
            key=f"{ftm}|{resource}|x{factor:g}",
            params={
                "ftm": ftm, "resource": resource, "factor": factor,
                "requests": requests, "warmup": warmup,
                "period_ms": period_ms, "slo_ms": slo_ms,
                "proactive": True,
            },
            seeds=seeds,
        )
        for ftm in ftms
        for resource in resources
        for factor in factors
    )
    return ExperimentSpec(name="gray-matrix", trial=_trial, trials=trials,
                          reduce=_reduce_cell)


def from_results(results: Dict) -> Dict:
    """Aggregate per-cell counts into the gray-matrix summary.

    Adds per-cell Wilson intervals for the detection and masking rates
    and the mean detection latency — the headline numbers of the sweep.
    """
    cells = {}
    for key, value in results.items():
        cell = dict(value)
        cell["detection_ci"] = wilson_interval(
            cell["detected"], cell["missions"]
        )
        cell["masked_ci"] = wilson_interval(cell["masked"], cell["missions"])
        if cell["detection_latency_count"]:
            cell["mean_detection_latency_ms"] = round(
                cell["detection_latency_sum_ms"]
                / cell["detection_latency_count"], 3
            )
        else:
            cell["mean_detection_latency_ms"] = None
        cell["unavailability"] = (
            round(cell["slo_misses"] / cell["post_requests"], 4)
            if cell["post_requests"] else 0.0
        )
        cells[key] = cell
    return {
        "cells": cells,
        "missions": sum(c["missions"] for c in cells.values()),
        "sent": sum(c["sent"] for c in cells.values()),
        "ok": sum(c["ok"] for c in cells.values()),
        "detected": sum(c["detected"] for c in cells.values()),
        "transitioned": sum(c["transitioned"] for c in cells.values()),
        "peer_suspected": sum(c["peer_suspected"] for c in cells.values()),
        "slo_misses": sum(c["slo_misses"] for c in cells.values()),
    }


def render(data: Dict) -> str:
    """A per-cell table plus the matrix-wide aggregate line."""
    rows = []
    for key, cell in sorted(data["cells"].items()):
        latency = cell["mean_detection_latency_ms"]
        rows.append([
            key,
            cell["missions"],
            f"{cell['detected']}/{cell['missions']}",
            format_interval(*cell["detection_ci"]),
            f"{latency:.0f}" if latency is not None else "-",
            f"{cell['transitioned']}/{cell['missions']}",
            format_interval(*cell["masked_ci"]),
            f"{cell['unavailability']:.3f}",
            cell["peer_suspected"],
        ])
    table = render_table(
        ["Cell", "Missions", "Detected", "Detect CI", "Latency ms",
         "Transitioned", "Masked CI", "Unavail", "Suspected"],
        rows,
        title="Gray-failure matrix (FTM × resource × factor)",
    )
    summary = (
        f"\ngray matrix: {data['missions']} missions, "
        f"{data['ok']}/{data['sent']} requests ok, "
        f"{data['detected']} limps detected, "
        f"{data['transitioned']} proactive transitions, "
        f"{data['peer_suspected']} crash suspicions (must be 0)"
    )
    return table + summary


def shape_checks(data: Dict) -> List[str]:
    """The gray-failure claims the matrix must uphold (empty = hold).

    * slow ≠ dead: no limping mission may ever trip the crash detector;
    * masking survives the limp: every request succeeds in every cell;
    * a ×8 limplock of a resource the FTM exercises is always detected —
      and for PBR (not limp-tolerant) always answered with a proactive
      transition.  LFR's disk cell is exempt: LFR never touches the
      disk, so a disk limp is invisible *and harmless* there.
    """
    problems: List[str] = []
    if data["missions"] == 0:
        problems.append("gray matrix ran no missions")
        return problems
    if data["peer_suspected"]:
        problems.append(
            f"limping node tripped the crash detector "
            f"{data['peer_suspected']} times (slow must not look dead)"
        )
    for key, cell in sorted(data["cells"].items()):
        if cell["ok"] != cell["sent"]:
            problems.append(
                f"cell {key}: lost requests ({cell['ok']}/{cell['sent']} ok)"
            )
        must_detect = cell["factor"] >= 8.0 and (
            cell["ftm"] == "pbr" or cell["resource"] == "cpu"
        )
        if must_detect and cell["detected"] < cell["missions"]:
            problems.append(
                f"cell {key}: limplock went undetected "
                f"({cell['detected']}/{cell['missions']})"
            )
        if (
            must_detect
            and cell["ftm"] == "pbr"
            and cell["transitioned"] < cell["missions"]
        ):
            problems.append(
                f"cell {key}: detected limp did not drive a proactive "
                f"transition ({cell['transitioned']}/{cell['missions']})"
            )
    return problems
