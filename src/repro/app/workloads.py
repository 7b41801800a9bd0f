"""Workload generators: pacing for a :class:`repro.ftm.Client`.

A workload is a generator process that issues a payload stream through a
client on a schedule and returns nothing: what was answered, and how
fast, is the client's record (``client.replies``,
``client.latencies_ms``).  The eval modules drive only :func:`constant`;
the other two shapes are exercised by the tests:

* :func:`constant` — fixed-rate requests (the paper's measurement load);
* :func:`bursty` — alternating bursts and silences (stresses quiescence:
  a transition must buffer a whole burst);
* :func:`phased` — a different rate per phase.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Tuple

from repro.kernel.sim import Timeout

#: Produces the next payload given the request index.
PayloadFn = Callable[[int], Any]


def increments(index: int) -> Any:
    """The default payload stream: add 1 per request."""
    return ("add", 1)


def constant(
    client,
    count: int,
    period_ms: float = 50.0,
    payload_fn: PayloadFn = increments,
) -> Generator:
    """Fixed-rate workload: one request every ``period_ms``."""
    for index in range(count):
        yield from client.request(payload_fn(index))
        yield Timeout(period_ms)


def bursty(
    client,
    bursts: int,
    burst_size: int = 5,
    gap_ms: float = 500.0,
    payload_fn: PayloadFn = increments,
) -> Generator:
    """Bursts of back-to-back requests separated by silences."""
    index = 0
    for _burst in range(bursts):
        for _ in range(burst_size):
            yield from client.request(payload_fn(index))
            index += 1
        yield Timeout(gap_ms)


def phased(
    client,
    phases: Iterable[Tuple[int, float]],
    payload_fn: PayloadFn = increments,
) -> Generator:
    """Phases of ``(count, period_ms)`` — the rate changes per phase."""
    index = 0
    for count, period_ms in phases:
        for _ in range(count):
            yield from client.request(payload_fn(index))
            index += 1
            yield Timeout(period_ms)
