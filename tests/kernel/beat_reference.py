"""Test-only reference failure detector: the beat path in plain kernel events.

The virtual beat clock (``repro.kernel.beats``) is an optimisation, never
a semantics change.  This module spells the same contract with the
primitives the clock replaces — one ``Node.every`` tick and one
``Network.send`` per beat, one ``Timeout`` per watchdog re-arm — so the
parity tests can run any scenario both ways and demand identical bytes:
trace digest, ``network`` RNG state, counters, energy floats, the
failure detectors' ``heartbeats_seen`` *and* the simulator's final
sequence number (the beats took their ``seq`` draws in the same places).
"""

from contextlib import contextmanager, nullcontext

from repro.ftm import failure_detector
from repro.kernel import BeatMonitor, BeatStream, Timeout, World

from tests.golden.beat_parity import tracked_detectors, world_fingerprint


class ReferenceMonitor(BeatMonitor):
    """A beat monitor the clock does not recognise (it checks the exact
    class), whose sleep is one real ``Timeout`` hop: the caller's ``while
    now < deadline: yield monitor`` loop re-arms, event by event."""

    def _subscribe(self, process):
        return Timeout(self.deadline - self.sim.now)._subscribe(process)


def reference_stream(network, source, peer, port, payload, size, period):
    """``BeatStream``'s contract written with a ticker and ``send``."""
    node = network._nodes[source]

    def beat():
        target = peer()
        if target and node.is_up:
            network.send(source, target, port, payload, size)

    return node.every(period, beat)


@contextmanager
def reference_detector():
    """Failure detectors started inside the block are the reference."""
    shipped = failure_detector.BeatStream, failure_detector.BeatMonitor
    failure_detector.BeatStream = reference_stream
    failure_detector.BeatMonitor = ReferenceMonitor
    try:
        yield
    finally:
        failure_detector.BeatStream, failure_detector.BeatMonitor = shipped


def fingerprint(world, detectors=()):
    """The golden fingerprint plus the final sequence number."""
    found = world_fingerprint(world, detectors)
    found["seq"] = world.sim._seq
    return found


def run_both_ways(scenario, seed=7):
    """Run ``scenario(world)`` with the clock and with the reference;
    returns both fingerprints (clock first)."""
    prints = []
    for mode in (nullcontext, reference_detector):
        with mode(), tracked_detectors() as detectors:
            world = World(seed=seed)
            world.add_nodes(["alpha", "beta", "client"])
            scenario(world)
            prints.append(fingerprint(world, detectors))
    return prints


def run_bare(clock, script, seed=13, until=400.0):
    """alpha <-> beta beats on bare nodes, each watched by a watchdog
    loop; ``script(world)`` adds the traffic the beats must interleave
    with.  Streams start at 0.0 with period 20.0, so ticks fall on
    exactly 20.0, 40.0, ... — integer instants tie with them."""
    stream = BeatStream if clock else reference_stream
    monitor_type = BeatMonitor if clock else ReferenceMonitor
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta"])
    world.expiries = []
    world.log = []

    def start(me, peer):
        monitor = monitor_type(world.sim, 60.0)
        world.network.bind(me, "fd").set_sink(monitor)
        stream(world.network, me, lambda: peer, "fd", ("heartbeat", me),
               32, 20.0)

        def watchdog():
            while True:
                if world.now < monitor.deadline:
                    yield monitor
                    continue
                world.expiries.append((me, world.now, monitor.seen))
                monitor.deadline = world.now + monitor.timeout

        world.cluster.node(me).spawn(watchdog(), name="watchdog")

    world.start_detector = start
    start("alpha", "beta")
    start("beta", "alpha")
    script(world)
    world.run(until=until)
    found = fingerprint(world)
    found["expiries"] = world.expiries
    found["log"] = world.log
    return found
