"""The Monitoring Engine (Figure 1).

Two roles, per the paper:

1. **measure resource usage R** — periodic probes over the nodes and the
   network: bandwidth consumption, CPU utilisation, energy draw;
2. **analyze non-functional behaviour** — observers over the structured
   trace capture "rare error events": TR comparison mismatches, assertion
   failures, replica crashes.  From these inputs, **adaptation triggers**
   are computed.

Triggers land in a channel the Resilience Management Service consumes.

The third input (this PR's gray-failure work) is a **latency-percentile
probe**: per-node streaming digests of request latencies (p50/p99 over a
sliding window, fixed-bucket histogram so every backend computes the
same bytes) feeding a ``node-limping`` trigger with hysteresis.  A
limping node is *slow, not dead* — its heartbeats keep flowing, so the
failure detector's crash path must stay silent while the limping trigger
drives a *proactive* FTM change.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.kernel.sim import Channel, Timeout
from repro.kernel.trace import TraceRecord


class LatencyDigest:
    """A sliding-window latency histogram with byte-deterministic quantiles.

    Latencies land in fixed geometric buckets (half-powers of two from
    0.5 ms up), so a quantile is always a bucket upper edge — the same
    bytes on every executor backend, no interpolation, no float-order
    sensitivity.  Old observations age out of the window lazily.
    """

    #: Fixed bucket upper edges in ms: 2**(i/2 - 1), i.e. ~0.5 ms … ~362 s.
    EDGES = tuple(2.0 ** (i / 2.0 - 1.0) for i in range(40))

    def __init__(self, window_ms: float = 2_000.0):
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms!r}")
        self.window_ms = window_ms
        self._events: deque = deque()  # (time, bucket index), time-ordered
        self._counts = [0] * (len(self.EDGES) + 1)
        self.total = 0

    def observe(self, now: float, latency_ms: float) -> None:
        """Record one request latency observed at ``now``."""
        self._evict(now)
        bucket = bisect.bisect_left(self.EDGES, latency_ms)
        self._events.append((now, bucket))
        self._counts[bucket] += 1
        self.total += 1

    def _evict(self, now: float) -> None:
        horizon = now - self.window_ms
        while self._events and self._events[0][0] < horizon:
            _, bucket = self._events.popleft()
            self._counts[bucket] -= 1
            self.total -= 1

    def quantile(self, q: float, now: Optional[float] = None) -> Optional[float]:
        """The bucket upper edge at quantile ``q`` (None when empty)."""
        if now is not None:
            self._evict(now)
        if self.total == 0:
            return None
        rank = max(1, int(q * self.total + 0.999999))
        cumulative = 0
        for bucket, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                if bucket < len(self.EDGES):
                    return self.EDGES[bucket]
                return self.EDGES[-1] * 2.0
        return self.EDGES[-1] * 2.0  # pragma: no cover - rank <= total


@dataclass(frozen=True)
class Trigger:
    """One adaptation trigger."""

    time: float
    dimension: str   #: "FT" | "A" | "R"
    event: str       #: a ParameterEvent name from the scenario graph
    source: str      #: "probe" | "observer" | "manager"
    details: Dict = field(default_factory=dict)


@dataclass
class Thresholds:
    """Probe thresholds (the reconfiguration thresholds of Sec. 5.4)."""

    #: bandwidth considered scarce below this many bytes/ms on a link
    bandwidth_low: float = 2_000.0
    #: bandwidth considered ample again above this (hysteresis band)
    bandwidth_high: float = 8_000.0
    #: CPU utilisation considered saturated above this fraction
    cpu_saturated: float = 0.85
    #: consecutive saturated samples before the CPU trigger fires —
    #: filters out reconfiguration bursts (a transition is ~1 s of work)
    cpu_sustain_samples: int = 8
    #: TR mismatches within one window that signal transient value faults
    tr_mismatch_count: int = 2
    #: assertion failures within one window that signal permanent faults
    assertion_failure_count: int = 3
    #: a node whose p99 request latency exceeds this is limping (gray)
    limp_p99_ms: float = 25.0
    #: a limping node whose p99 falls back below this has recovered —
    #: the [clear, limp] band is the hysteresis that stops flapping
    limp_clear_p99_ms: float = 10.0
    #: consecutive over-threshold probe samples before ``node-limping``
    #: fires — debounces one slow checkpoint or a transition burst
    limp_sustain_samples: int = 3
    #: latency observations required in the window before judging at all
    latency_min_requests: int = 5
    #: sliding window over which the latency digests aggregate
    latency_window_ms: float = 2_000.0


class MonitoringEngine:
    """Probes + observers → triggers."""

    def __init__(
        self,
        world,
        nodes: List[str],
        period: float = 250.0,
        thresholds: Optional[Thresholds] = None,
    ):
        self.world = world
        self.nodes = list(nodes)
        self.period = period
        self.thresholds = thresholds or Thresholds()
        self.triggers = Channel(world.sim, name="monitoring.triggers")
        self.trigger_history: List[Trigger] = []
        self.samples: List[Dict] = []
        self._last_busy: Dict[str, float] = {}
        self._window_counts: Dict[str, int] = {"tr_mismatch": 0, "assertion_failed": 0}
        self._bandwidth_scarce = False
        self._cpu_streak: Dict[str, int] = {}
        self._cpu_scarce: Dict[str, bool] = {}
        self._latency: Dict[str, LatencyDigest] = {}
        self._limp_streak: Dict[str, int] = {}
        self._limping: Dict[str, bool] = {}
        self._process = None
        world.trace.subscribe(self._observe)

    def limping_nodes(self) -> List[str]:
        """Nodes currently judged limping (slow, not dead)."""
        return sorted(n for n, limping in self._limping.items() if limping)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic probing."""
        if self._process is None or not self._process.alive:
            # baseline the CPU counters so deployment work done before
            # monitoring began does not read as utilisation
            for name in self.nodes:
                node = self.world.cluster.nodes.get(name)
                if node is not None:
                    self._last_busy[name] = node.busy_ms
            self._process = self.world.sim.spawn(self._probe_loop(), name="monitoring")

    def stop(self) -> None:
        """Halt probing (the trace observer stays subscribed)."""
        if self._process is not None and self._process.alive:
            self._process.kill()

    # -- trigger emission ---------------------------------------------------------------

    def emit(self, dimension: str, event: str, source: str, **details) -> Trigger:
        """Publish one adaptation trigger to the channel and history."""
        trigger = Trigger(
            time=self.world.now,
            dimension=dimension,
            event=event,
            source=source,
            details=dict(details),
        )
        self.trigger_history.append(trigger)
        self.triggers.put(trigger)
        self.world.trace.record(
            "monitoring",
            "trigger",
            dimension=dimension,
            parameter_event=event,
            source=source,
        )
        return trigger

    # -- the error observer (trace subscription) ------------------------------------------

    def _observe(self, record: TraceRecord) -> None:
        if record.category != "ftm":
            return
        if record.event == "request_served":
            node = record.detail("node")
            latency = record.detail("latency_ms")
            if node in self.nodes and latency is not None:
                digest = self._latency.get(node)
                if digest is None:
                    digest = self._latency[node] = LatencyDigest(
                        self.thresholds.latency_window_ms
                    )
                digest.observe(record.time, latency)
        elif record.event == "tr_mismatch":
            self._window_counts["tr_mismatch"] += 1
            if self._window_counts["tr_mismatch"] == self.thresholds.tr_mismatch_count:
                self.emit(
                    "FT",
                    "hardware-aging",
                    "observer",
                    mismatches=self._window_counts["tr_mismatch"],
                )
        elif record.event == "assertion_failed":
            self._window_counts["assertion_failed"] += 1
            if (
                self._window_counts["assertion_failed"]
                == self.thresholds.assertion_failure_count
            ):
                self.emit(
                    "FT",
                    "critical-phase-start",
                    "observer",
                    failures=self._window_counts["assertion_failed"],
                )

    # -- the resource probes --------------------------------------------------------------

    def _probe_loop(self):
        while True:
            yield Timeout(self.period)
            self._sample()

    def _sample(self) -> None:
        sample: Dict = {"time": self.world.now, "nodes": {}}
        for name in self.nodes:
            node = self.world.cluster.nodes.get(name)
            if node is None:
                continue
            busy = node.busy_ms
            delta = busy - self._last_busy.get(name, 0.0)
            self._last_busy[name] = busy
            utilisation = min(1.0, delta / self.period)
            sample["nodes"][name] = {
                "cpu_utilisation": utilisation,
                "energy": node.energy,
                "bytes_sent": node.bytes_sent,
                "up": node.is_up,
            }
            if not node.is_up:
                # a dead host charges no busy time: it is not an idle CPU
                self._cpu_streak[name] = 0
            elif utilisation > self.thresholds.cpu_saturated:
                self._cpu_streak[name] = self._cpu_streak.get(name, 0) + 1
                if (
                    self._cpu_streak[name] == self.thresholds.cpu_sustain_samples
                    and not self._cpu_scarce.get(name, False)
                ):
                    self._cpu_scarce[name] = True
                    self.emit(
                        "R", "cpu-drop", "probe", node=name, utilisation=utilisation
                    )
            else:
                self._cpu_streak[name] = 0
                if self._cpu_scarce.get(name, False):
                    self._cpu_scarce[name] = False
                    self.emit("R", "cpu-increase", "probe", node=name)

            self._sample_latency(name, node, sample)

        # bandwidth probe: the characterised capacity of the replica links
        bandwidth = self._min_link_bandwidth()
        sample["bandwidth"] = bandwidth
        if bandwidth is not None:
            if bandwidth < self.thresholds.bandwidth_low and not self._bandwidth_scarce:
                self._bandwidth_scarce = True
                self.emit("R", "bandwidth-drop", "probe", bandwidth=bandwidth)
            elif bandwidth > self.thresholds.bandwidth_high and self._bandwidth_scarce:
                self._bandwidth_scarce = False
                self.emit("R", "bandwidth-increase", "probe", bandwidth=bandwidth)

        self.samples.append(sample)

    def _sample_latency(self, name: str, node, sample: Dict) -> None:
        """The limping probe: per-node p99 with hysteresis.

        Slow-vs-dead discrimination happens here: a *down* node gets its
        streak reset and is never judged limping (the failure detector's
        crash path owns dead nodes), and a node with no recent traffic
        holds its state rather than flapping.
        """
        if not node.is_up:
            self._limp_streak[name] = 0
            return
        digest = self._latency.get(name)
        p99 = None
        if (
            digest is not None
            and digest.total >= self.thresholds.latency_min_requests
        ):
            p99 = digest.quantile(0.99, now=self.world.now)
            sample["nodes"][name]["latency_p50_ms"] = digest.quantile(0.5)
            sample["nodes"][name]["latency_p99_ms"] = p99
        if p99 is not None and p99 > self.thresholds.limp_p99_ms:
            self._limp_streak[name] = self._limp_streak.get(name, 0) + 1
            if (
                self._limp_streak[name] == self.thresholds.limp_sustain_samples
                and not self._limping.get(name, False)
            ):
                self._limping[name] = True
                self.emit("FT", "node-limping", "probe", node=name, p99_ms=p99)
        else:
            self._limp_streak[name] = 0
            if (
                self._limping.get(name, False)
                and p99 is not None
                and p99 < self.thresholds.limp_clear_p99_ms
            ):
                self._limping[name] = False
                self.emit("FT", "node-recovered", "probe", node=name, p99_ms=p99)

    def _min_link_bandwidth(self) -> Optional[float]:
        bandwidths = []
        for a in self.nodes:
            for b in self.nodes:
                if a >= b:
                    continue
                try:
                    bandwidths.append(self.world.network.link(a, b).bandwidth)
                except Exception:  # noqa: BLE001 - nodes may not be linked
                    continue
        return min(bandwidths) if bandwidths else None

    # -- window management ---------------------------------------------------------------------

    def reset_window(self) -> None:
        """Clear error counters (after an adaptation handled them).

        Latency digests are cleared too: a transition's own latency spike
        must not immediately re-judge the new configuration as limping.
        """
        self._window_counts = {key: 0 for key in self._window_counts}
        self._latency.clear()
        self._limp_streak.clear()
