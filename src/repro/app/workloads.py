"""Workload generators for examples, tests and the eval modules.

A workload is a generator process driving a :class:`repro.ftm.Client`
with a payload stream and a pacing model.  Three shapes cover what the
evaluation needs:

* :func:`constant` — fixed-rate requests (the paper's measurement load);
* :func:`bursty` — alternating bursts and silences (stresses quiescence:
  a transition must buffer a whole burst);
* :func:`phased` — different rates per mission phase (the satellite and
  automotive scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.kernel.sim import Timeout

#: Produces the next payload given the request index.
PayloadFn = Callable[[int], Any]


def increments(index: int) -> Any:
    """The default payload stream: add 1 per request."""
    return ("add", 1)


@dataclass
class WorkloadResult:
    """What a workload run observed."""

    sent: int = 0
    ok: int = 0
    errors: int = 0
    replayed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    replies: List[Any] = field(default_factory=list)

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    @property
    def max_latency_ms(self) -> float:
        return max(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def all_ok(self) -> bool:
        return self.sent > 0 and self.ok == self.sent


def _issue(world, client, payload: Any, result: WorkloadResult) -> Generator:
    started = world.now
    reply = yield from client.request(payload)
    result.sent += 1
    result.latencies_ms.append(world.now - started)
    result.replies.append(reply)
    if reply.ok:
        result.ok += 1
    else:
        result.errors += 1
    if reply.replayed:
        result.replayed += 1


def constant(
    world,
    client,
    count: int,
    period_ms: float = 50.0,
    payload_fn: PayloadFn = increments,
    result: Optional[WorkloadResult] = None,
) -> Generator:
    """Fixed-rate workload: one request every ``period_ms``."""
    result = result if result is not None else WorkloadResult()
    for index in range(count):
        yield from _issue(world, client, payload_fn(index), result)
        yield Timeout(period_ms)
    return result


def bursty(
    world,
    client,
    bursts: int,
    burst_size: int = 5,
    gap_ms: float = 500.0,
    payload_fn: PayloadFn = increments,
    result: Optional[WorkloadResult] = None,
) -> Generator:
    """Bursts of back-to-back requests separated by silences."""
    result = result if result is not None else WorkloadResult()
    index = 0
    for _burst in range(bursts):
        for _ in range(burst_size):
            yield from _issue(world, client, payload_fn(index), result)
            index += 1
        yield Timeout(gap_ms)
    return result


def phased(
    world,
    client,
    phases: Iterable[Tuple[int, float]],
    payload_fn: PayloadFn = increments,
    result: Optional[WorkloadResult] = None,
) -> Generator:
    """Phases of ``(count, period_ms)`` — rates change per mission phase."""
    result = result if result is not None else WorkloadResult()
    index = 0
    for count, period_ms in phases:
        for _ in range(count):
            yield from _issue(world, client, payload_fn(index), result)
            index += 1
            yield Timeout(period_ms)
    return result
