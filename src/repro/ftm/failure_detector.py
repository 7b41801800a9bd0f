"""The ``failure detector`` component of Figure 6.

A heartbeat-based crash detector — the paper's "dedicated entity (e.g.,
heartbeat, watchdog)".  A *common part*: it is never replaced by
transitions, and its background processes keep running while variable
features are being swapped, so a real crash during a transition is still
detected (Sec. 5.3, distributed consistency).

Per replica: a :class:`~repro.kernel.beats.BeatStream` emitting
heartbeats to the peer, a :class:`~repro.kernel.beats.BeatMonitor`
installed as the mailbox *sink* consuming them, and a watchdog process
that suspects the peer when no heartbeat arrives within the timeout,
then invokes ``peer_failed`` on the protocol component.  Heartbeats were
the dominant event source in long campaigns; stream and monitor live in
the kernel's virtual beat clock, so a beat costs no kernel event.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.components.impl import ComponentImpl
from repro.components.model import Multiplicity
from repro.kernel.beats import BeatMonitor, BeatStream
from repro.kernel.sim import Process


class HeartbeatFailureDetector(ComponentImpl):
    """Heartbeat sender + timeout monitor."""

    SERVICES = {"fd": ("status", "reset", "suspend", "resume")}
    REFERENCES = {"control": Multiplicity.ONE}

    def on_attach(self) -> None:
        self._processes: List[Process] = []
        self.suspected = False
        #: Counts heartbeats and keeps the expiry deadline; installed as
        #: the ``fd`` mailbox's sink while the detector runs.
        self._beats = BeatMonitor(self.ctx.sim, self.prop("timeout", 60.0))
        self._suspended = False
        self._started_at = 0.0
        self._mailbox = None

    @property
    def heartbeats_seen(self) -> int:
        """Heartbeats received so far."""
        return self._beats.seen

    # -- lifecycle hooks -----------------------------------------------------------

    def on_start(self) -> None:
        self._started_at = self.ctx.sim.now
        if self._processes and any(p.alive for p in self._processes):
            return  # restart after a stop: processes still running
        monitor = self._beats
        monitor.timeout = self.prop("timeout", 60.0)
        monitor.deadline = self._started_at + monitor.timeout
        node = self.ctx.node
        self._install_monitor_sink()
        self._processes = [
            self._spawn_sender(node),
            node.spawn(self._watchdog(), name="fd-watchdog"),
        ]

    def _spawn_sender(self, node):
        """Emit one heartbeat per period as a kernel beat stream.

        The hottest loop in campaign workloads, so it costs no kernel
        events at all: the simulator's virtual beat clock replays ticks
        and deliveries lazily in ``(time, seq)`` order — same beat
        instants, draws, drops and limp-factor delays as a ``while True:
        send; yield Timeout(period)`` process.  The ``peer`` prop is
        looked up again whenever anything but the clock has run, so it
        stays reconfigurable.
        """
        return BeatStream(
            self.ctx.network, node.name,
            partial(self.component.properties.get, "peer", ""), "fd",
            ("heartbeat", node.name), 32, self.prop("period", 20.0),
        )

    def _install_monitor_sink(self) -> None:
        """Consume heartbeats synchronously inside the delivery.

        The receive loop deliberately spawns no process and parks no
        getter: the mailbox hands every beat to the :class:`BeatMonitor`
        sink (the beat clock applies its own deliveries without even
        calling it).  Expiry is owned by :meth:`_watchdog`.  Buffered
        beats are drained on install, so a detector redeployed onto a
        restarted node picks up exactly where a blocking monitor would
        have.
        """
        self._mailbox = self.ctx.mailbox("fd")
        self._mailbox.set_sink(self._beats)

    def on_stop(self) -> None:
        # The FD is a common part and is normally never stopped; if a script
        # does stop it (or the composite is destroyed), kill the loops.
        for process in self._processes:
            process.kill()
        self._processes = []
        mailbox = getattr(self, "_mailbox", None)
        if mailbox is not None:
            mailbox.set_sink(None)
            self._mailbox = None

    # -- service operations ----------------------------------------------------------

    def status(self) -> dict:
        """Suspicion flag and heartbeat counters."""
        return {
            "suspected": self.suspected,
            "heartbeats_seen": self.heartbeats_seen,
            "suspended": self._suspended,
        }

    def reset(self) -> None:
        """Clear the suspicion (a fresh peer was reintegrated)."""
        self.suspected = False

    def suspend(self) -> None:
        """Stop suspecting (e.g. while the peer is deliberately rebooted)."""
        self._suspended = True

    def resume(self) -> None:
        """Resume suspecting after a :meth:`suspend`."""
        self._suspended = False

    # -- background processes ------------------------------------------------------------

    def _watchdog(self):
        """Suspect the peer when no heartbeat lands before the deadline.

        Sleeps on the monitor until its deadline has passed — observably
        a ``get(timeout=...)`` loop: suspicion happens at exactly
        ``last_heartbeat + timeout`` — without a schedule/cancel pair
        per message (the re-arms are replayed by the beat clock).
        """
        monitor = self._beats
        timeout = monitor.timeout
        sim = self.ctx.sim
        while True:
            now = sim.now
            if now < monitor.deadline:
                yield monitor
                continue
            monitor.deadline = now + timeout  # expiry window restarts
            if self._suspended or self.suspected:
                continue
            if (
                monitor.seen == 0
                and now - self._started_at < self.prop("grace", 500.0)
            ):
                continue  # startup grace: the peer may still be deploying
            self.suspected = True
            self.ctx.trace.record(
                "ftm",
                "peer_suspected",
                node=self.ctx.node.name,
                peer=self.prop("peer", ""),
            )
            yield from self.ref("control").invoke("peer_failed")
            monitor.deadline = sim.now + timeout  # the wait restarts here
