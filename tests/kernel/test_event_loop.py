"""The one-heap event loop: ``(time, seq)`` order and lazy-cancel bounds.

Events at one instant run FIFO by sequence number whichever insert site
scheduled them, cancelled entries never fire, ``peek_time`` is exact,
and mass timer cancellation cannot grow the heap without bound.
"""

import pytest

from repro.kernel import Channel, SimulationError, Simulator, Timeout, World


def _nop():
    pass


def _record(log, sim, tag):
    log.append((sim.now, tag))


def _mixed_workload():
    """Every insert site at once, on one simulator: ``schedule``,
    ``post``, ``call_later``, nested scheduling from callbacks, a
    cancellation, and a two-node world driving a ``Node.every`` ticker,
    ``Network.send`` (jittered link, loopback, and a zero-latency
    zero-size message — the only kind with ``delay == 0.0``) plus a
    ``Channel.put`` hand-off to a parked getter."""
    world = World(seed=3)
    sim = world.sim
    log = []
    sim.schedule(5.0, _record, log, sim, "timed-5")
    sim.schedule(0.0, _record, log, sim, "zero-a")
    sim.post(_record, log, sim, "post-a")
    sim.call_later(5.0, _record, log, sim, "later-5")
    sim.call_later(0.0, _record, log, sim, "later-0")
    sim.schedule(2.0, _record, log, sim, "timed-2")
    doomed = sim.schedule(3.0, _record, log, sim, "cancelled")
    doomed.cancel()

    def nested():
        log.append((sim.now, "nested"))
        sim.post(_record, log, sim, "nested-post")
        sim.schedule(1.0, _record, log, sim, "nested-timed")

    sim.schedule(4.0, nested)

    alpha, _beta = world.add_nodes(["alpha", "beta"])
    network = world.network
    network.set_link("beta", "alpha", latency=0.0, bandwidth=1.0, symmetric=False)
    handoff = Channel(sim, "handoff")

    def receiver(mailbox, tag, reply=None):
        while True:
            message = yield mailbox.get()
            log.append((sim.now, f"{tag}-{message.payload}"))
            if reply is not None:
                reply(message.payload)

    def echo(count):
        network.send("beta", "alpha", "echo", count, size=0)
        handoff.put(count)

    def taker():
        while True:
            item = yield handoff.get()
            log.append((sim.now, f"handoff-{item}"))

    sim.spawn(receiver(network.bind("beta", "data"), "data", echo))
    sim.spawn(receiver(network.bind("alpha", "echo"), "echo"))
    sim.spawn(receiver(network.bind("alpha", "loop"), "loop"))
    sim.spawn(taker())
    ticks = []

    def tick():
        ticks.append(sim.now)
        log.append((sim.now, f"tick-{len(ticks)}"))
        network.send("alpha", "beta", "data", len(ticks))
        if len(ticks) % 2:
            network.send("alpha", "alpha", "loop", len(ticks))
        if len(ticks) == 6:
            ticker.kill()

    ticker = alpha.every(1.5, tick)
    sim.run()
    return log, sim._seq


def _period_regimes():
    """Self-rescheduling timers from sub-unit to multi-thousand-unit
    periods, all interleaving into one global order."""
    sim = Simulator(seed=3)
    log = []
    horizon = 600.0

    def make(tag, period):
        def tick():
            log.append((sim.now, tag))
            if sim.now + period < horizon:
                sim.call_later(period, tick)
        return tick

    for tag, period in enumerate(
        [0.5, 1.0, 3.0, 5.0, 17.0, 64.0, 300.0, 2098.0]
    ):
        sim.call_later(period, make(tag, period))
    sim.run()
    return log, sim._seq


def _timeout_waiters():
    """Processes sleeping on ``Timeout`` waits of very different lengths."""
    sim = Simulator(seed=11)
    log = []

    def proc(tag, period):
        for _ in range(20):
            yield Timeout(period)
            log.append((sim.now, tag))

    for tag, period in enumerate([1.5, 7.0, 23.0, 160.0]):
        sim.spawn(proc(tag, period))
    sim.run()
    return log, sim._seq


def test_every_insert_site_replays_deterministically_in_time_order():
    logs = {}
    for workload in (_mixed_workload, _period_regimes, _timeout_waiters):
        first = workload()
        assert first == workload(), workload.__name__
        logs[workload], _final_seq = first
        assert len(logs[workload]) > 30
        times = [time for time, _tag in logs[workload]]
        assert times == sorted(times), workload.__name__
    log = logs[_mixed_workload]
    assert log[0][1] == "zero-a"  # zero-delay fires before timers
    times = {tag: time for time, tag in log}
    for expected in ("tick-6", "data-6", "echo-6", "handoff-6", "loop-5"):
        assert expected in times
    assert times["echo-6"] == times["data-6"]  # the send with delay == 0.0


def test_same_instant_entries_run_in_seq_order():
    # two timers land on t=5; the first one's callback posts a zero-delay
    # entry, which must still fire *after* the second timer (smaller seq)
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.post(order.append, "posted")

    sim.schedule(5.0, first)
    sim.schedule(5.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "posted"]


def test_post_and_zero_schedule_interleave_fifo():
    sim = Simulator()
    order = []
    sim.post(order.append, 0)
    sim.schedule(0.0, order.append, 1)
    sim.post(order.append, 2)
    sim.call_later(0.0, order.append, 3)
    sim.run()
    assert order == [0, 1, 2, 3]


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-0.5, _nop)


def test_cancelled_zero_delay_entry_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.active


def test_cancelled_timers_are_skipped_among_live_ones():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(50.0 + i, fired.append, i)
    for _ in range(5_000):
        sim.schedule(10.0, fired.append, "dead").cancel()
    sim.run()
    assert fired == list(range(10))


def test_peek_time_skips_cancelled_heads():
    sim = Simulator()
    head = sim.schedule(1.0, _nop)
    sim.schedule(2.0, _nop)
    head.cancel()
    assert sim.peek_time() == 2.0


def test_peek_time_sees_zero_delay_entries():
    sim = Simulator()
    assert sim.peek_time() is None
    sim.post(_nop)
    assert sim.peek_time() == 0.0
