"""The virtual heartbeat clock: periodic beats without kernel events.

A failure detector beats for the whole life of a replica pair: one
kernel event per tick, one per delivery, plus the watchdog's re-arms —
the dominant event source of every long mission.  A :class:`BeatClock`
keeps all three in a private heap and shows the kernel a single *alarm*:
an ordinary timed entry carrying the ``(time, seq)`` of the earliest
virtual event.  When it fires, the clock replays in one tight loop every
virtual event ordered before the next pending kernel event, and re-arms.

**Ordering invariant.**  A tick takes its ``seq`` when the previous tick
runs, a delivery when its tick runs, a watchdog wake when the previous
wake runs: exactly where the kernel events they replace took theirs.
Beats therefore interleave with every other event — exact ties included
— in the single-heap ``(time, seq)`` order, with the loss/jitter draws,
counters, energy accumulation and ``drop`` records of ``Network.send`` /
``Network._deliver``.  Successful beats never wrote a trace record, so
traces, stores and final RNG states are byte-identical.

**One specialisation.**  The clock re-implements only the *quiet* beat:
both nodes up, a plain link, no partition or loss in the way, a :class:`BeatMonitor` listening.  Anything else goes through
``Network.send`` / ``Network._deliver`` themselves.  Quietness is checked
once per replay window: nothing but the clock runs inside one, so the
answer holds until foreign code does.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, List

from repro.kernel.network import Message, Network
from repro.kernel.sim import Process, Simulator

#: Marks a watchdog wake in the clock's heap (ticks carry ``None``,
#: deliveries their route).
_WAKE = object()


class BeatMonitor:
    """The receiving end of a beat stream: a mailbox sink that counts
    arrivals and keeps ``deadline`` at ``timeout`` past the latest one.

    ``yield monitor`` sleeps until the deadline has passed: observably
    ``while now < deadline: yield Timeout(deadline - now)`` — same wake
    instants and ``seq`` draws — but a wake that merely re-arms is
    virtual; only the expiry resumes the process.  The kernel knows all
    a monitor does with a beat, so the clock applies arrivals itself.
    """

    __slots__ = ("sim", "timeout", "seen", "deadline")

    def __init__(self, sim: Simulator, timeout: float):
        self.sim = sim
        self.timeout = timeout
        self.seen = 0
        self.deadline = sim.now + timeout

    def __call__(self, _message: Any = None) -> None:
        """One arrival at the current instant (the mailbox-sink form)."""
        self.seen += 1
        self.deadline = self.sim.now + self.timeout

    def _subscribe(self, process: Process) -> Callable[[], None]:
        sim = self.sim
        now = sim.now  # callers yield only while now < deadline
        wait = [process]  # emptied on cancellation (the process died)
        wake = now + (self.deadline - now)  # Timeout(deadline - now)
        sim._seq += 1
        BeatClock.of(sim)._push((wake, sim._seq, self, _WAKE, wait))
        return wait.clear


class BeatStream:
    """One node's periodic beat: a ``size``-byte message to ``peer()``'s
    ``port`` now and then every ``period``.

    Observably ``node.every(period, lambda: send(source, peer(), port,
    payload, size))`` with an empty ``peer()`` skipping the beat.  Rides
    in ``node.processes`` like a ticker (``alive`` / ``kill``: a crash
    stops it); the cached route aliases the live Node and Link objects
    the fault injector mutates, so crashes and limp factors apply.
    ``peer`` must be pure.
    """

    __slots__ = (
        "network", "node", "peer", "port", "payload", "size", "period",
        "_killed", "_energy", "_low", "_span", "_rng",
        "_route", "_window", "_base", "_monitor",
    )

    def __init__(self, network: Network, source: str,
                 peer: Callable[[], str], port: str, payload: Any,
                 size: int, period: float):
        node = network._nodes[source]
        node.check_up("beat")
        if period <= 0:
            raise ValueError(f"beat period must be positive, got {period}")
        self.network = network
        self.node = node
        self.peer = peer
        self.port = port
        self.payload = payload
        self.size = size
        self.period = period
        self._killed = False
        costs = network.costs  # frozen: safe to resolve once
        self._energy = size * costs.energy_per_byte_sent
        # send()'s jitter, term for term: base * (low + (high - low) * r)
        self._low = 1.0 - costs.jitter_fraction
        self._span = (1.0 + costs.jitter_fraction) - self._low
        self._rng = network._rng_random
        self._route: tuple = (None,)  # (peer, dest node, link, mailbox key)
        self._window = 0  # the replay window this stream was last quiet in
        node.processes.append(self)
        sim = network.sim
        sim._seq += 1  # first tick now, like ``sim.post(ticker._tick)``
        BeatClock.of(sim)._push((sim.now, sim._seq, self, None, 0.0))

    @property
    def alive(self) -> bool:
        return not self._killed

    def kill(self) -> None:
        """Stop beating (idempotent); beats already in flight still land."""
        self._killed = True

    def _quiet(self, window: int) -> bool:
        """Would ``send`` and ``_deliver`` both take their plain branch
        for this stream right now?  Caches what they would look up."""
        peer = self.peer()
        node = self.node
        if self._killed or not peer or not node.is_up:
            return False
        network = self.network
        route = self._route
        if route[0] != peer:
            link = network._links.get((node.name, peer))
            if link is None:
                return False  # loopback or unknown: send() sorts it out
            self._route = route = (
                peer, network._nodes[peer], link, (peer, self.port)
            )
        link = route[2]
        mailbox = network._mailboxes.get(route[3])
        if (
            mailbox is None or mailbox._getters
            or mailbox._sink.__class__ is not BeatMonitor
            or not route[1].is_up
            or link.loss > 0.0 or network._loss_probability > 0.0
            or self._span <= 0.0
            or (network._partitions and network.partitioned(node.name, peer))
        ):
            return False
        self._monitor = mailbox._sink
        self._base = link.latency + self.size / link.bandwidth
        self._window = window
        return True


class BeatClock:
    """A simulator's private heap of virtual beat events.

    Entries are ``(time, seq, subject, kind, aux)``: a tick is ``(…,
    stream, None, 0.0)``, a delivery ``(…, stream, route, sent_at)`` and
    a watchdog wake ``(…, monitor, _WAKE, wait)``.  The earliest entry
    always has an alarm in the kernel's heap under its own ``(time,
    seq)``, so the kernel's heap orders the clock against everything
    else and ``peek_time`` / ``pending`` see live streams.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._heap: List[tuple] = []
        self._armed: set = set()  # seqs of the entries that have an alarm
        self._window = 0  # bumped per replay and whenever foreign code ran

    @staticmethod
    def of(sim: Simulator) -> "BeatClock":
        """The simulator's clock, installed on first use."""
        if sim._beat_clock is None:
            sim._beat_clock = BeatClock(sim)
        return sim._beat_clock

    def _push(self, entry: tuple) -> None:
        """Add an entry from outside a replay (first tick, first wake)."""
        heapq.heappush(self._heap, entry)
        self._arm()

    def _arm(self) -> None:
        """Make sure the earliest entry has its alarm."""
        heap = self._heap
        if heap and heap[0][1] not in self._armed:
            sim = self.sim
            self._armed.add(heap[0][1])
            sim._ev_heartbeat += 1
            heapq.heappush(
                sim._queue, (heap[0][0], heap[0][1], None, self._replay, ())
            )

    def _tick(self, stream: BeatStream, now: float) -> bool:
        """A tick off the quiet path: ``Network.send`` itself.  True if
        its delivery (or a trace subscriber) is a new kernel event."""
        sim = self.sim
        sim.now = now
        mark = sim._seq + 1
        peer = stream.peer()
        if peer and stream.node.is_up:
            requests = sim._ev_request
            stream.network.send(
                stream.node.name, peer, stream.port, stream.payload,
                stream.size,
            )
            if sim._ev_request != requests:  # not dropped: re-attribute
                sim._ev_request = requests
                sim._ev_heartbeat += 1
                sim.beats_materialised += 1
        sim._seq += 1
        heapq.heappush(
            self._heap, (now + stream.period, sim._seq, stream, None, 0.0)
        )
        return sim._seq != mark

    def _replay(self) -> None:
        """An alarm fired: run every virtual event ordered before the
        next pending kernel event, then re-arm.  Stops early when a
        handler (mailbox getter, trace subscriber, expired watchdog) scheduled a kernel event, which may precede
        the bound; the fresh alarm then sorts after it."""
        sim = self.sim
        heap = self._heap
        if not heap:
            return
        self._armed.discard(heap[0][1])  # ours: alarms fire in heap order
        bound = sim._head()
        if bound is None:
            time, seq = inf, 0
        else:
            time, seq = bound[0], bound[1]
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        window = self._window = self._window + 1
        replayed = 0
        entry = None
        try:
            while heap:
                entry = heap[0]
                now, entry_seq, stream, route, aux = entry
                if now > time or (now == time and entry_seq >= seq):
                    break
                if route is None:  # -- a tick ------------------------------
                    if stream._window != window and not stream._quiet(window):
                        heappop(heap)
                        if stream._killed:
                            continue
                        replayed += 1
                        disturbed = self._tick(stream, now)
                        window = self._window = self._window + 1
                        if disturbed:
                            break
                        continue
                    replayed += 1
                    node = stream.node
                    stream.network.messages_sent += 1
                    node.bytes_sent += stream.size
                    node.energy += stream._energy
                    arrive = now + stream._base * (
                        stream._low + stream._span * stream._rng()
                    )
                    tick_seq = sim._seq = sim._seq + 2
                    # nothing can sort before the running entry, so it is
                    # still the top: swap it for the next tick in one sift
                    heapreplace(
                        heap, (now + stream.period, tick_seq, stream, None, 0.0)
                    )
                    if arrive >= time or arrive >= heap[0][0]:
                        heappush(heap, (
                            arrive, tick_seq - 1, stream, stream._route, now,
                        ))
                        continue
                    # the beat lands before anything else happens: deliver
                    # it right here, no heap round trip
                    route = stream._route
                    now = arrive
                elif route is _WAKE:  # -- a watchdog re-arm or expiry ------
                    wait = aux
                    deadline = stream.deadline if wait else now
                    if now < deadline:
                        wake_seq = sim._seq = sim._seq + 1
                        heapreplace(heap, (
                            now + (deadline - now), wake_seq, stream, _WAKE,
                            wait,
                        ))
                        continue
                    heappop(heap)
                    if wait:  # else the waiting process was killed
                        sim.now = now
                        wait[0]._resume(None, None)
                        break
                    continue
                else:  # -- a delivery --------------------------------------
                    heappop(heap)
                    if (
                        stream._window != window and not stream._quiet(window)
                    ) or route is not stream._route:
                        replayed += 1
                        sim.now = now
                        mark = sim._seq
                        stream.network._deliver(Message(
                            stream.node.name, route[0], stream.port,
                            stream.payload, stream.size, aux,
                        ))
                        window = self._window = self._window + 1
                        if sim._seq != mark:
                            break
                        continue
                replayed += 1
                route[1].bytes_received += stream.size
                stream.network.messages_delivered += 1
                monitor = stream._monitor
                monitor.seen += 1
                monitor.deadline = now + monitor.timeout
        except BaseException:
            if heap and heap[0] is entry:
                heappop(heap)  # a tick that raised never re-arms
            raise
        finally:
            sim.beats_replayed += replayed
            self._arm()
