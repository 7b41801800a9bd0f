"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.kernel import (
    TIMEOUT,
    Channel,
    Event,
    ProcessInterrupted,
    ProcessKilled,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
)


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]
    assert sim.now == 5.0


def test_schedule_same_time_is_fifo():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_handle_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.active


def test_run_until_stops_clock():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_process_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(2.5)
        yield Timeout(2.5)
        return "done"

    result = sim.run_process(proc())
    assert result == "done"
    assert sim.now == 5.0


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        return 42

    assert sim.run_process(proc()) == 42


def test_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield Timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(proc())


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_non_waitable_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(SimulationError, match="non-waitable"):
        sim.run_process(proc())


def test_event_trigger_wakes_waiter_with_value():
    sim = Simulator()
    event = Event(sim)
    seen = []

    def waiter():
        value = yield event
        seen.append(value)

    sim.spawn(waiter())
    sim.schedule(3.0, event.trigger, "payload")
    sim.run()
    assert seen == ["payload"]
    assert sim.now == 3.0


def test_event_already_triggered_resumes_immediately():
    sim = Simulator()
    event = Event(sim)
    event.trigger("early")

    def waiter():
        value = yield event
        return value

    assert sim.run_process(waiter()) == "early"


def test_event_double_trigger_is_error():
    sim = Simulator()
    event = Event(sim)
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    event = Event(sim)

    def waiter():
        yield event

    sim.schedule(1.0, event.fail, RuntimeError("bad"))
    with pytest.raises(RuntimeError, match="bad"):
        sim.run_process(waiter())


def test_event_wakes_multiple_waiters():
    sim = Simulator()
    event = Event(sim)
    seen = []

    def waiter(tag):
        value = yield event
        seen.append((tag, value))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.schedule(1.0, event.trigger, 7)
    sim.run()
    assert sorted(seen) == [("a", 7), ("b", 7)]


def test_channel_put_then_get():
    sim = Simulator()
    channel = Channel(sim)
    channel.put("item")

    def getter():
        item = yield channel.get()
        return item

    assert sim.run_process(getter()) == "item"


def test_channel_get_blocks_until_put():
    sim = Simulator()
    channel = Channel(sim)

    def getter():
        item = yield channel.get()
        return (item, sim.now)

    process = sim.spawn(getter())
    sim.schedule(4.0, channel.put, "late")
    sim.run()
    assert process.result == ("late", 4.0)


def test_channel_fifo_order_items():
    sim = Simulator()
    channel = Channel(sim)
    for index in range(3):
        channel.put(index)

    def getter():
        items = []
        for _ in range(3):
            item = yield channel.get()
            items.append(item)
        return items

    assert sim.run_process(getter()) == [0, 1, 2]


def test_channel_fifo_order_getters():
    sim = Simulator()
    channel = Channel(sim)
    got = []

    def getter(tag):
        item = yield channel.get()
        got.append((tag, item))

    sim.spawn(getter("first"))
    sim.spawn(getter("second"))
    sim.schedule(1.0, channel.put, "a")
    sim.schedule(2.0, channel.put, "b")
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_channel_get_timeout_returns_sentinel():
    sim = Simulator()
    channel = Channel(sim)

    def getter():
        item = yield channel.get(timeout=5.0)
        return (item, sim.now)

    assert sim.run_process(getter()) == (TIMEOUT, 5.0)


def test_channel_get_timeout_cancelled_by_put():
    sim = Simulator()
    channel = Channel(sim)

    def getter():
        item = yield channel.get(timeout=10.0)
        return (item, sim.now)

    process = sim.spawn(getter())
    sim.schedule(2.0, channel.put, "in-time")
    sim.run()
    assert process.result == ("in-time", 2.0)
    assert sim.now == 2.0  # the stale timeout never extends the run


def test_join_returns_child_result():
    sim = Simulator()

    def child():
        yield Timeout(3.0)
        return "child-result"

    def parent():
        process = sim.spawn(child())
        result = yield process
        return (result, sim.now)

    assert sim.run_process(parent()) == ("child-result", 3.0)


def test_join_reraises_child_failure():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise KeyError("child-failure")

    def parent():
        process = sim.spawn(child())
        yield process

    with pytest.raises(KeyError, match="child-failure"):
        sim.run_process(parent())


def test_join_already_terminated_child():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return 9

    def parent():
        process = sim.spawn(child())
        yield Timeout(5.0)
        result = yield process
        return result

    assert sim.run_process(parent()) == 9


def test_all_of_joins_everything():
    sim = Simulator()

    def child(duration, value):
        yield Timeout(duration)
        return value

    def parent():
        procs = [sim.spawn(child(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        results = yield from all_of(sim, procs)
        return results

    assert sim.run_process(parent()) == [30.0, 10.0, 20.0]
    assert sim.now == 3.0


def test_interrupt_raises_in_waiting_process():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield Timeout(100.0)
        except ProcessInterrupted as exc:
            caught.append(exc.cause)
        return "recovered"

    process = sim.spawn(victim())
    sim.schedule(2.0, process.interrupt, "reason")
    sim.run()
    assert caught == ["reason"]
    assert process.result == "recovered"
    assert sim.now == 2.0


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield Timeout(1.0)

    process = sim.spawn(quick())
    sim.run()
    process.interrupt("late")  # must not raise
    sim.run()


def test_kill_terminates_process():
    sim = Simulator()
    reached = []

    def victim():
        yield Timeout(10.0)
        reached.append("after")

    process = sim.spawn(victim())
    sim.schedule(1.0, process.kill)
    sim.run()
    assert reached == []
    assert not process.alive
    assert isinstance(process.exception, ProcessKilled)


def test_kill_is_not_swallowable():
    sim = Simulator()
    reached = []

    def stubborn():
        try:
            yield Timeout(10.0)
        except BaseException:
            reached.append("caught")
            raise
        reached.append("after")

    process = sim.spawn(stubborn())
    sim.schedule(1.0, process.kill)
    sim.run()
    assert not process.alive
    assert "after" not in reached


def test_deadlock_detection_in_run_process():
    sim = Simulator()
    channel = Channel(sim)

    def stuck():
        yield channel.get()

    with pytest.raises(SimulationError, match="never terminated"):
        sim.run_process(stuck())


def test_determinism_same_seed_same_trace():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        values = []

        def proc():
            for _ in range(10):
                delay = sim.random.uniform(0.0, 2.0)
                yield Timeout(delay)
                values.append(round(sim.now, 9))

        sim.run_process(proc())
        return values

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)


def test_run_counts_no_dead_entry_it_never_pushed():
    """The horizon handle exists only for ``run(until=)``: an idle
    ``run()`` pushed nothing, so it has nothing to cancel."""
    sim = Simulator()
    for _ in range(5):
        sim.run()
    assert not sim._queue

    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)  # the horizon fired: popped, not cancelled
    assert sim.now == 10.0
    assert not sim._queue
