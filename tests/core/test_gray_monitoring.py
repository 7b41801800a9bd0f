"""Tests for the latency-percentile probe and threshold hysteresis.

Covers the gray-failure instrument stack bottom-up: the byte-
deterministic ``LatencyDigest``, the ``node-limping`` trigger with its
sustain debounce and hysteresis band, slow-vs-dead discrimination at the
probe level (a *down* node is the crash detector's business, never the
limping probe's), and the classic probes' hysteresis (bandwidth band,
CPU sustain debounce).
"""

from repro.core.monitoring import LatencyDigest, MonitoringEngine, Thresholds
from repro.core.parameters import FaultClass
from repro.core.transition_graph import EVENTS, GRAY_EVENTS, event
from repro.kernel import Timeout, World


def make_world(seed=50):
    world = World(seed=seed)
    world.add_nodes(["alpha", "beta", "client"])
    return world


def feed(world, latency_ms, count, gap_ms=40.0, node="alpha"):
    """A driver that records served requests at a fixed latency."""
    for index in range(count):
        world.trace.record("ftm", "request_served", node=node,
                           request_id=index, latency_ms=latency_ms)
        yield Timeout(gap_ms)


def limp_events(monitoring, name):
    return [t for t in monitoring.trigger_history if t.event == name]


# -- LatencyDigest -----------------------------------------------------------------


def test_digest_quantiles_are_bucket_edges():
    digest = LatencyDigest(window_ms=1_000.0)
    for latency in (1.0, 2.0, 3.0, 30.0):
        digest.observe(0.0, latency)
    # a quantile is always one of the fixed geometric edges
    assert digest.quantile(0.5) in LatencyDigest.EDGES
    assert digest.quantile(0.99) in LatencyDigest.EDGES
    assert digest.quantile(0.99) >= 32.0  # the 30 ms tail lands at edge 32


def test_digest_empty_returns_none():
    digest = LatencyDigest(window_ms=1_000.0)
    assert digest.quantile(0.99) is None


def test_digest_evicts_outside_window():
    digest = LatencyDigest(window_ms=100.0)
    digest.observe(0.0, 50.0)
    digest.observe(90.0, 1.0)
    assert digest.quantile(0.99, now=90.0) >= 64.0
    # the 50 ms observation ages out; only the 1 ms one remains
    assert digest.quantile(0.99, now=150.0) < 2.0
    assert digest.total == 1


def test_digest_identical_for_identical_streams():
    a = LatencyDigest(window_ms=500.0)
    b = LatencyDigest(window_ms=500.0)
    stream = [(t * 10.0, 3.0 + (t % 7)) for t in range(100)]
    for now, latency in stream:
        a.observe(now, latency)
        b.observe(now, latency)
    assert a.quantile(0.5) == b.quantile(0.5)
    assert a.quantile(0.99) == b.quantile(0.99)
    assert a._counts == b._counts


def test_digest_rejects_non_positive_window():
    try:
        LatencyDigest(window_ms=0.0)
    except ValueError:
        pass
    else:  # pragma: no cover - the assertion documents intent
        raise AssertionError("window_ms=0 must be rejected")


# -- the limping trigger ------------------------------------------------------------


def test_limping_trigger_latches_clears_and_rearms():
    world = make_world()
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()

    def scenario():
        yield from feed(world, 5.0, 20)    # healthy baseline
        yield from feed(world, 30.0, 50)   # limp: p99 -> 32 > 25
        yield from feed(world, 15.0, 60)   # hysteresis band: 10 < 16 < 25
        yield from feed(world, 5.0, 60)    # recovery: p99 -> 5.66 < 10
        yield from feed(world, 30.0, 50)   # limp again: re-armed trigger

    world.run_process(scenario(), name="driver")
    assert len(limp_events(monitoring, "node-limping")) == 2
    assert len(limp_events(monitoring, "node-recovered")) == 1
    assert monitoring.limping_nodes() == ["alpha"]


def test_limping_trigger_stays_latched_inside_band():
    world = make_world()
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()

    def scenario():
        yield from feed(world, 30.0, 50)   # latch
        yield from feed(world, 15.0, 80)   # in-band: no clear, no re-fire

    world.run_process(scenario(), name="driver")
    assert len(limp_events(monitoring, "node-limping")) == 1
    assert len(limp_events(monitoring, "node-recovered")) == 0
    assert monitoring.limping_nodes() == ["alpha"]


def test_short_spike_is_debounced_by_sustain():
    world = make_world()
    thresholds = Thresholds(limp_sustain_samples=3, latency_window_ms=500.0)
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=200.0,
                                  thresholds=thresholds)
    monitoring.start()

    def scenario():
        yield from feed(world, 30.0, 6, gap_ms=50.0)  # 300 ms spike
        yield Timeout(1_500.0)  # silence: the window drains before 3 samples

    world.run_process(scenario(), name="driver")
    assert limp_events(monitoring, "node-limping") == []


def test_down_node_is_never_judged_limping():
    world = make_world()
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()

    def scenario():
        yield from feed(world, 30.0, 5, gap_ms=40.0)
        world.cluster.node("alpha").crash()  # dead, not slow
        yield Timeout(1_000.0)

    world.run_process(scenario(), name="driver")
    # the digest is hot, but a down node belongs to the crash detector
    assert limp_events(monitoring, "node-limping") == []
    assert monitoring.limping_nodes() == []


def test_quiet_node_needs_min_requests_before_judgement():
    world = make_world()
    monitoring = MonitoringEngine(world, ["alpha", "beta"], period=100.0)
    monitoring.start()

    def scenario():
        # fewer observations than latency_min_requests: never judged
        yield from feed(world, 30.0, 3, gap_ms=10.0)
        yield Timeout(1_000.0)

    world.run_process(scenario(), name="driver")
    assert limp_events(monitoring, "node-limping") == []


# -- classic probe hysteresis (bandwidth band, CPU sustain) -------------------------


def test_bandwidth_oscillation_inside_band_does_not_retrigger():
    world = make_world()
    monitoring = MonitoringEngine(world, ["alpha", "beta"])
    monitoring.start()
    world.network.set_link("alpha", "beta", bandwidth=500.0)  # drop fires
    world.run(until=world.now + 600.0)
    for _ in range(3):  # oscillate inside the [low, high] band
        world.network.set_link("alpha", "beta", bandwidth=5_000.0)
        world.run(until=world.now + 600.0)
        world.network.set_link("alpha", "beta", bandwidth=500.0)
        world.run(until=world.now + 600.0)
    drops = [t for t in monitoring.trigger_history
             if t.event == "bandwidth-drop"]
    ups = [t for t in monitoring.trigger_history
           if t.event == "bandwidth-increase"]
    assert len(drops) == 1  # scarce state latched across the band
    assert ups == []
    world.network.set_link("alpha", "beta", bandwidth=9_000.0)
    world.run(until=world.now + 600.0)
    ups = [t for t in monitoring.trigger_history
           if t.event == "bandwidth-increase"]
    assert len(ups) == 1  # only the above-band recovery clears


def test_cpu_trigger_requires_consecutive_saturated_samples():
    world = make_world()
    thresholds = Thresholds(cpu_sustain_samples=3)
    monitoring = MonitoringEngine(world, ["alpha"], period=100.0,
                                  thresholds=thresholds)
    node = world.cluster.node("alpha")
    monitoring._last_busy["alpha"] = node.busy_ms

    def hot():
        node.busy_ms += 95.0  # utilisation 0.95 > 0.85
        monitoring._sample()

    def cool():
        monitoring._sample()  # no new busy time: utilisation 0

    hot(), hot(), cool(), hot(), hot()  # a cool sample breaks the streak
    assert [t for t in monitoring.trigger_history
            if t.event == "cpu-drop"] == []
    hot()  # third consecutive saturated sample
    drops = [t for t in monitoring.trigger_history if t.event == "cpu-drop"]
    assert len(drops) == 1
    cool()  # recovery emits exactly one increase
    ups = [t for t in monitoring.trigger_history
           if t.event == "cpu-increase"]
    assert len(ups) == 1


def test_crashed_node_is_not_an_idle_cpu():
    world = World(seed=1)
    world.add_nodes(["alpha", "beta"])
    monitoring = MonitoringEngine(world, ["alpha", "beta"],
                                  thresholds=Thresholds(cpu_sustain_samples=4))
    monitoring.start()
    alpha = world.cluster.node("alpha")

    def scenario():
        while world.now < 3_000.0:  # saturate alpha: cpu-drop fires
            yield alpha.compute_charge(25.0)
        alpha.crash()  # a dead host charges no busy time ...
        yield Timeout(1_000.0)
        ups_while_down = [t for t in monitoring.trigger_history
                          if t.event == "cpu-increase"]
        alpha.restart()  # ... an idle live one recovers the resource
        restarted = world.now
        yield Timeout(1_000.0)
        return ups_while_down, restarted

    ups_while_down, restarted = world.run_process(scenario(), name="driver")
    drops = [t for t in monitoring.trigger_history if t.event == "cpu-drop"]
    assert [t.details["node"] for t in drops] == ["alpha"]
    assert ups_while_down == []
    ups = [t for t in monitoring.trigger_history if t.event == "cpu-increase"]
    assert [t.details["node"] for t in ups] == ["alpha"]
    assert ups[0].time > restarted


# -- the gray parameter events ------------------------------------------------------


def test_gray_events_are_separate_from_the_scenario_vocabulary():
    gray_names = {e.name for e in GRAY_EVENTS}
    assert gray_names == {"node-limping", "node-recovered"}
    assert gray_names.isdisjoint({e.name for e in EVENTS})


def test_gray_events_resolve_and_toggle_limp_requirement():
    limping = event("node-limping")
    recovered = event("node-recovered")
    assert limping.detection == "probe"
    assert recovered.detection == "probe"
    from repro.core.parameters import SystemContext

    context = SystemContext()
    assert not context.ft.requires(FaultClass.LIMP)
    context = limping.apply(context)
    assert context.ft.requires(FaultClass.LIMP)
    context = recovered.apply(context)
    assert not context.ft.requires(FaultClass.LIMP)
