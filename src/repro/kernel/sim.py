"""A deterministic discrete-event simulator with generator-based processes.

This module is the execution substrate for the whole reproduction: nodes,
networks, fault-tolerance protocols and the adaptation engine all run as
:class:`Process` instances over a single :class:`Simulator`.

Processes are plain Python generators that *yield* wait descriptors:

``yield Timeout(5.0)``
    resume 5 time units later.

``yield event``
    resume when the :class:`Event` is triggered; the ``yield`` evaluates
    to the value the event was triggered with.

``yield channel.get()``
    resume when an item is available on the :class:`Channel`; an optional
    ``timeout=`` resumes with the :data:`TIMEOUT` sentinel instead.

``yield process``
    join: resume when the other process terminates; the ``yield``
    evaluates to its return value, or re-raises its failure.

Time is virtual: the simulator jumps from event to event, so a simulated
second costs microseconds of wall time, and two runs with the same seed
produce byte-identical traces.

The event loop is **one binary heap** ordered by ``(time, seq)`` and
fed by **one schedule routine** (:meth:`Simulator._push`), which stamps
every entry with the next global sequence number.  Zero-delay events —
process resumes, channel handoffs, join delivery — ride the same heap at
``now``, so events at one instant run FIFO in the order they were
scheduled.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional

from repro.kernel.errors import (
    ProcessInterrupted,
    ProcessKilled,
    SimulationError,
)
from repro.kernel.rand import DeterministicRandom


class _Sentinel:
    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{self._label}>"


#: Returned by ``channel.get(timeout=...)`` when the timeout expires first.
TIMEOUT = _Sentinel("TIMEOUT")


def _noop() -> None:
    """Shared no-op canceller (avoids a closure per already-ready wait)."""


#: Shared ``(value, exc)`` argument pair for plain resumes — every Timeout
#: wake-up passes ``(None, None)``, so one interned tuple serves them all.
_RESUME_ARGS = (None, None)


class Handle:
    """A cancellable reference to a scheduled callback.

    Cancelling only marks the heap entry; the loop skips it when popped.
    """

    __slots__ = ("_cancelled", "_fired")

    def __init__(self) -> None:
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the scheduled callback from firing."""
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)


class Simulator:
    """The event loop: one priority queue of ``(time, seq)`` events."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.random = DeterministicRandom(seed)
        self._queue: List = []
        self._seq = 0
        self._running = False
        # per-run event attribution (see ``events_by_source``) and the
        # beat clock's counters: beat events replayed without a kernel
        # event / beats sent as ordinary messages after all
        for _key, counter in _SOURCES:
            setattr(self, counter, 0)
        #: The virtual heartbeat clock (``beats.BeatClock``), installed on
        #: first use.
        self._beat_clock: Any = None
        self.processes: List["Process"] = []

    @property
    def events_by_source(self) -> Dict[str, int]:
        """Scheduled-event attribution by producing subsystem (this run)."""
        return {key: getattr(self, counter) for key, counter in _SOURCES[:4]}

    # -- scheduling --------------------------------------------------------

    def _push(
        self, delay: float, fn: Callable, args: tuple, cancellable: bool = False
    ) -> Optional[Handle]:
        """The one schedule routine: queue ``fn(*args)`` at ``now + delay``.

        Takes the next global sequence number, pushes the ``(time, seq)``
        heap entry and mints the :class:`Handle` when the caller wants
        one.  ``delay`` is already validated.
        """
        self._seq += 1
        handle = Handle() if cancellable else None
        heapq.heappush(
            self._queue, (self.now + delay, self._seq, handle, fn, args)
        )
        return handle

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay`` time units; returns a Handle."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._push(delay, fn, args, True)

    def post(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current time; no cancellation handle.

        The allocation-light form for the kernel's own zero-delay events
        (process resumes, channel handoffs, event triggers) whose handles
        were never cancellable in practice.
        """
        self._push(0.0, fn, args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Timed :meth:`post`: run ``fn(*args)`` after ``delay``, no Handle.

        For fire-and-forget timed events that are never cancelled,
        saving one Handle allocation per event.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._push(delay, fn, args)

    def spawn(self, gen: Generator, name: str = "proc") -> "Process":
        """Wrap a generator into a Process and start it at the current time."""
        process = Process(self, gen, name)
        self.processes.append(process)
        self.post(process._resume_cb, None, None)
        return process

    def drain(self) -> None:
        """Kill every process and drop the event queue (idempotent).

        The simulator's share of :meth:`World.close`.  Live generators
        close (``finally`` blocks run); every shell then gives up its
        generator frame, its failure (whose traceback names the shell)
        and its self-referencing resume callback, so the finished run's
        object graph — scheduled tickers, channel getters, component
        closures — is freed by reference counting instead of waiting for
        the cyclic collector.  The clock keeps its final reading.
        """
        for process in self.processes:
            process.kill()
        self._queue.clear()
        self._beat_clock = None  # its streams died with the processes
        for process in self.processes:
            process.gen = process.exception = process._resume_cb = None
            process.terminated.value = None  # held the failure as well
        self.processes.clear()

    def pending(self) -> int:
        """Live (non-cancelled) scheduled events."""
        return sum(
            1 for e in self._queue if e[2] is None or not e[2]._cancelled
        )

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or None when idle.

        Cancelled heap heads are pruned as a side effect, so the answer
        is exact.
        """
        entry = self._head()
        return None if entry is None else entry[0]

    def _head(self) -> Optional[tuple]:
        """The earliest live heap entry, pruning cancelled heads; None
        when the heap is empty."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is not None and head[2]._cancelled:
                heapq.heappop(queue)
                continue
            return head
        return None

    # -- execution ---------------------------------------------------------

    def advance(self, stop: "Event") -> None:
        """Execute events until ``stop`` triggers or the queues drain
        (callers tell the two apart by ``stop.triggered``).

        This is the one dispatch loop: process runners and :meth:`run`
        execute one Python call per *drain* instead of one per event,
        which is measurable at campaign scale.  It pops the heap in
        strict ``(time, seq)`` order and skips cancelled entries.
        """
        queue = self._queue
        heappop = heapq.heappop
        while queue and not stop.triggered:
            time, _seq, handle, fn, args = heappop(queue)
            if handle is not None:
                if handle._cancelled:
                    continue
                handle._fired = True
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            fn(*args)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the simulation time when execution stopped.  The horizon
        is itself a timed entry, ordered after every event at ``until``
        (its ``seq`` is infinite): whoever looks for the next pending
        event — the beat clock replaying up to it — finds the horizon.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        stop = Event(self, "run.until")
        handle = None
        if until is not None:
            handle = Handle()
            heapq.heappush(
                self._queue,
                (max(until, self.now), inf, handle, stop.trigger, ()),
            )
        try:
            self.advance(stop)
        finally:
            self._running = False
            if handle is not None:
                handle.cancel()
        return self.now

    def run_process(self, gen: Generator, name: str = "main") -> Any:
        """Spawn ``gen``, run until it terminates, and return its result.

        The convenience entry point used by examples and tests: failures in
        the process propagate to the caller.  Execution stops as soon as
        the process finishes — background daemons (failure detectors,
        pumps) may still have pending events; they simply resume on the
        next ``run`` call.
        """
        process = self.spawn(gen, name)
        terminated = process.terminated
        self.advance(terminated)
        if not terminated.triggered:
            raise SimulationError(f"process {name!r} never terminated (deadlock?)")
        if process.exception is not None:
            raise process.exception
        return process.result


# ---------------------------------------------------------------------------
# Event attribution
# ---------------------------------------------------------------------------


#: Attribution key -> the ``Simulator`` counter it accumulates: four
#: kernel-event producers (``events_by_source``), then the beat clock's two.
_SOURCES = (
    ("heartbeat", "_ev_heartbeat"), ("timer", "_ev_timer"),
    ("request", "_ev_request"), ("fault", "_ev_fault"),
    ("beats_replayed", "beats_replayed"),
    ("beats_materialised", "beats_materialised"),
)

#: Process-wide accumulator for per-subsystem event attribution, plus the
#: beat clock's two counters.  Worlds fold their counters in when they
#: end (see ``World.close``); the experiment runner
#: takes the total per dispatch.  Counters are a side channel: they never
#: influence event order, RNG draws or store bytes.
_ATTRIBUTION: Dict[str, int] = {key: 0 for key, _attr in _SOURCES}


def harvest_event_attribution(sim: Simulator) -> None:
    """Fold one simulator's source counters into the process-wide
    accumulator and zero them (a second harvest adds nothing)."""
    for key, attr in _SOURCES:
        _ATTRIBUTION[key] += getattr(sim, attr)
        setattr(sim, attr, 0)


def take_event_attribution() -> Dict[str, int]:
    """Return and zero the process-wide attribution accumulator."""
    out = dict(_ATTRIBUTION)
    for key in _ATTRIBUTION:
        _ATTRIBUTION[key] = 0
    return out


# ---------------------------------------------------------------------------
# Wait descriptors
# ---------------------------------------------------------------------------


class Timeout:
    """Wait descriptor: resume the yielding process after ``delay``."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay

    def _subscribe(self, process: "Process") -> "Handle":
        # the Handle itself is the canceller (see Process._abort_wait) and
        # every wake-up shares the _RESUME_ARGS pair: no bound-method or
        # tuple allocation on the hottest wait path
        sim = process.sim
        sim._ev_timer += 1
        return sim._push(self.delay, process._resume_cb, _RESUME_ARGS, True)


class Event:
    """A one-shot level-triggered event.

    Processes yield the event to wait for it; :meth:`trigger` resumes all
    waiters with a value, :meth:`fail` resumes them with an exception.
    Waiting on an already-triggered event resumes immediately — events are
    levels, not edges, which makes join/termination race-free.
    """

    __slots__ = ("sim", "name", "triggered", "value", "exception", "_waiters")

    def __init__(self, sim: Simulator, name: str = "event"):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming every waiter with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.post(process._resume_cb, value, None)

    def fail(self, exception: BaseException) -> None:
        """Fire the event by raising ``exception`` in every waiter."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.exception = exception
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.post(process._resume_cb, None, exception)

    def _subscribe(self, process: "Process") -> Callable[[], None]:
        if self.triggered:
            if self.exception is not None:
                self.sim.post(process._resume_cb, None, self.exception)
            else:
                self.sim.post(process._resume_cb, self.value, None)
            return _noop
        self._waiters.append(process)

        def cancel() -> None:
            if process in self._waiters:
                self._waiters.remove(process)

        return cancel


class _Get:
    """Wait descriptor produced by :meth:`Channel.get`."""

    __slots__ = ("channel", "timeout")

    def __init__(self, channel: "Channel", timeout: Optional[float]):
        self.channel = channel
        self.timeout = timeout

    def _subscribe(self, process: "Process") -> Callable[[], None]:
        return self.channel._subscribe_get(process, self.timeout)


class Channel:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns a wait descriptor.  Items put
    while a getter is pending are handed over in FIFO order among getters.

    A channel whose consumer never blocks on anything but the channel
    itself can instead attach a **sink** (:meth:`set_sink`): items are
    then handed to the sink synchronously inside ``put``, skipping the
    park-a-getter / schedule-a-resume round trip entirely — no kernel
    event, no generator frame switch per item.  This is the receive-side
    fast path for high-frequency streams like failure-detector
    heartbeats.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "_sink")

    def __init__(self, sim: Simulator, name: str = "channel"):
        self.sim = sim
        self.name = name
        self._items: deque = deque()
        self._getters: deque = deque()  # (channel, process, timeout_handle)
        self._sink: Optional[Callable[[Any], None]] = None

    def __len__(self) -> int:
        return len(self._items)

    def set_sink(self, sink: Optional[Callable[[Any], None]]) -> None:
        """Attach (or, with ``None``, detach) a synchronous consumer.

        Items already buffered are drained through the new sink at once,
        so a consumer switching from ``get`` loops to a sink observes
        every item exactly once, in order.  Installing a new sink
        replaces the old one — a redeployed component simply takes over
        its mailbox.  Pending blocking getters keep priority over the
        sink (FIFO handover is unchanged while they wait).
        """
        self._sink = sink
        if sink is not None:
            while self._items and self._sink is sink:
                sink(self._items.popleft())

    def put(self, item: Any) -> None:
        """Enqueue an item (hands it straight to the oldest pending getter)."""
        getters = self._getters
        while getters:
            _chan, process, timeout_handle = getters.popleft()
            if timeout_handle is not None and not timeout_handle.active:
                continue  # stale: its timeout already fired
            if timeout_handle is not None:
                timeout_handle.cancel()
            process._cancel_wait = None
            self.sim._push(0.0, process._resume_cb, (item, None))
            return
        if self._sink is not None:
            self._sink(item)
            return
        self._items.append(item)

    def get(self, timeout: Optional[float] = None) -> _Get:
        """A wait descriptor: yield it to receive the next item (or TIMEOUT)."""
        return _Get(self, timeout)

    def drain(self) -> List[Any]:
        """Remove and return all buffered items (no waiting)."""
        items = list(self._items)
        self._items.clear()
        return items

    def _subscribe_get(self, process: "Process", timeout: Optional[float]) -> Any:
        if self._items:
            item = self._items.popleft()
            self.sim.post(process._resume_cb, item, None)
            return _noop

        if timeout is None:
            # the getter entry doubles as the canceller (see
            # Process._abort_wait) — the receive hot path allocates one
            # tuple per wait and nothing else
            entry = (self, process, None)
            self._getters.append(entry)
            return entry

        entry = None

        def expire() -> None:
            if entry in self._getters:
                self._getters.remove(entry)
            process._clear_wait()
            process._resume(TIMEOUT, None)

        timeout_handle = self.sim.schedule(timeout, expire)
        entry = (self, process, timeout_handle)
        self._getters.append(entry)
        return entry


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Process:
    """A generator-based cooperative process.

    Created via :meth:`Simulator.spawn`.  A process terminates when its
    generator returns (``StopIteration``), raises, or is killed.  The
    :attr:`terminated` event carries the return value and makes joining
    (``yield process``) race-free.
    """

    __slots__ = (
        "sim", "gen", "name", "result", "exception", "terminated",
        "_cancel_wait", "_killed", "_resume_cb",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: str):
        if not isinstance(gen, Iterator):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}: "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.gen = gen
        self.name = name
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.terminated = Event(sim, name=f"{name}.terminated")
        self._cancel_wait: Any = None
        self._killed = False
        # bound once: every wait site passes this into schedule()/post(),
        # so rebinding the method per event would dominate allocations
        self._resume_cb = self._resume

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.terminated.triggered else "alive"
        return f"<Process {self.name} {state}>"

    @property
    def alive(self) -> bool:
        return not self.terminated.triggered

    # -- lifecycle ---------------------------------------------------------

    def _clear_wait(self) -> None:
        self._cancel_wait = None

    def _abort_wait(self) -> None:
        """Detach from the current wait, whatever canceller form it took.

        A ``_subscribe`` may return a zero-arg callable, a
        :class:`Handle` (the Timeout hot path hands back its schedule
        handle directly), or a channel getter entry tuple
        ``(channel, process, timeout_handle)`` — the two non-callable
        forms exist so the hottest wait paths allocate no canceller at
        all; aborting a wait is rare, subscribing is not.
        """
        cancel = self._cancel_wait
        if cancel is None:
            return
        self._cancel_wait = None
        kind = type(cancel)
        if kind is Handle:
            cancel.cancel()
        elif kind is tuple:
            channel, _process, timeout_handle = cancel
            try:
                channel._getters.remove(cancel)
            except ValueError:
                pass  # already handed an item / expired
            if timeout_handle is not None:
                timeout_handle.cancel()
        else:
            cancel()

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.terminated.triggered:
            return
        self._cancel_wait = None
        try:
            if exc is not None:
                descriptor = self.gen.throw(exc)
            else:
                descriptor = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except (ProcessKilled, ProcessInterrupted) as terminal:
            self._finish(None, terminal)
            return
        except BaseException as failure:  # noqa: BLE001 - deliberate funnel
            self._finish(None, failure)
            return
        # _wait_on inlined: this tail runs once per event for every live
        # process, so the extra frame was pure overhead
        try:
            subscribe = descriptor._subscribe
        except AttributeError:
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded a non-waitable "
                    f"{type(descriptor).__name__}"
                ),
            )
            return
        self._cancel_wait = subscribe(self)

    def _subscribe(self, joiner: "Process") -> Callable[[], None]:
        # yielding a process joins it: the join yields its result or re-raises
        return _Join(self)._subscribe(joiner)

    def _finish(self, result: Any, exception: Optional[BaseException]) -> None:
        self.result = result
        self.exception = exception
        self.terminated.trigger((result, exception))

    # -- external control --------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process.

        A process blocked on a wait is detached from it first; a process
        that is not currently waiting (i.e. scheduled to resume) sees the
        interrupt at its next yield point.
        """
        if not self.alive:
            return
        self._abort_wait()
        self.sim.post(self._resume_cb, None, ProcessInterrupted(cause))

    def kill(self) -> None:
        """Terminate the process immediately (used for node crashes).

        The generator is closed synchronously so no further code in it runs
        after the crash instant — crash faults are fail-stop.
        """
        if not self.alive or self._killed:
            return
        self._killed = True
        self._abort_wait()
        try:
            self.gen.close()
        except BaseException:  # noqa: BLE001 - a dying process can't veto death
            pass
        self._finish(None, ProcessKilled(f"process {self.name} killed"))


class _Join:
    """Wait descriptor for joining a process; re-raises its failure."""

    __slots__ = ("process",)

    def __init__(self, process: Process):
        self.process = process

    def _subscribe(self, joiner: Process) -> Callable[[], None]:
        target = self.process

        def deliver(_value: Any = None) -> None:
            if target.exception is not None:
                joiner._resume(None, target.exception)
            else:
                joiner._resume(target.result, None)

        if target.terminated.triggered:
            handle = joiner.sim.schedule(0.0, deliver)
            return handle.cancel
        waiter_event = target.terminated
        waiter_event._waiters.append(_Forwarder(deliver, joiner))

        def cancel() -> None:
            waiter_event._waiters[:] = [
                w
                for w in waiter_event._waiters
                if not (isinstance(w, _Forwarder) and w.joiner is joiner)
            ]

        return cancel


class _Forwarder:
    """Adapter so a _Join can sit in an Event waiter list."""

    __slots__ = ("deliver", "joiner")

    def __init__(self, deliver: Callable, joiner: Process):
        self.deliver = deliver
        self.joiner = joiner

    def _resume_cb(self, value: Any, exc: Optional[BaseException]) -> None:
        # the waiter-list protocol (see Event); a method, not a stored
        # bound method, so a forwarder is not a reference cycle
        self.deliver(value)


def all_of(sim: Simulator, processes: List[Process]) -> Generator:
    """A helper generator that joins every process in ``processes``.

    Usage: ``results = yield from all_of(sim, procs)``.
    """
    results = []
    for process in processes:
        result = yield process
        results.append(result)
    return results
