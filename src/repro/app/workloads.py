"""Workload pacing for a :class:`repro.ftm.Client`.

A workload is a generator process that issues requests through a client
on a schedule and returns nothing: what was answered, and how fast, is
the client's record (``client.replies``, ``client.latencies_ms``).  The
one shape is :func:`constant` — fixed-rate ``("add", 1)`` requests, the
paper's measurement load, driven by the campaign, gray and
transition-matrix missions.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.sim import Timeout


def constant(client, count: int, period_ms: float = 50.0) -> Generator:
    """Fixed-rate workload: one ``("add", 1)`` request every ``period_ms``."""
    for _ in range(count):
        yield from client.request(("add", 1))
        yield Timeout(period_ms)
