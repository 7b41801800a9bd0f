"""Remote execution backend: TCP fan-out to ``repro worker`` processes.

The ``exp.run`` contract — pure trials, blake2b-derived seeds,
order-independent merge by unit index — is machine-agnostic, so the
remote backend is the local pool over sockets.  It ships the same
:meth:`~repro.exp.runner.ExecutionPlan.batches` of ``(index, seed,
params)`` units, a worker runs each batch through the same
:func:`~repro.exp.runner.run_unit_batch` body, and the ``(index,
value)`` pairs it sends back go through the runner's assembler, which
finishes and persists every cell exactly as it does for ``serial`` and
``local``.  This module supplies both halves:

* :class:`RemoteBackend` — the coordinator.  One feeder thread per
  worker pulls batches from a shared :class:`_BatchScheduler`, ships
  them over a framed TCP connection and streams the replies into the
  caller's merge loop, so a cell hits the store the moment its last
  unit lands (``--resume`` keeps working mid-campaign).
* :func:`serve` — the worker.  ``repro worker --listen HOST:PORT``
  accepts one coordinator at a time and answers each batch with one
  frame.

Wire protocol (version 5)
-------------------------

Every message is one *frame*::

    magic   b"RXP1"                      (4 bytes; b"RXD1" is read too)
    length  big-endian uint32            (payload byte count)
    digest  blake2b(payload, 8 bytes)    (integrity checksum)
    payload UTF-8 JSON object            (insertion-ordered keys: trial
                                          results must round-trip with
                                          their key order intact, or
                                          remote store bytes diverge)

Payloads always carry a ``"type"`` key.  The conversation::

    coordinator -> worker   {"type": "hello", "version": 5,
                             "trial": "mod:fn", "code": blake2b-256}
    worker -> coordinator   {"type": "ready"}
                            (or an "error" frame saying why the hello
                             cannot be honoured, then the socket closes)

    coordinator -> worker   {"type": "units", "id": N,
                             "units": [[index, seed, params], ...]}
    worker -> coordinator   {"type": "results", "id": N,
                             "results": [[index, value], ...],
                             "ev": [count, ...]}
                            (or {"type": "error", "id": N, "message": ...})
    coordinator -> worker   {"type": "bye"}

``"code"`` is :func:`~repro.exp.spec.code_digest` of the trial — the
bytes of the whole ``repro`` package, the digest every cell address
covers: a worker whose code differs anywhere (kernel, FTMs, the trial)
refuses the hello with "code digest skew" naming both digests, so a
value computed by other code never reaches the store.  ``"ev"`` is the
batch's kernel event attribution (one short list of counts per reply,
in :data:`~repro.exp.runner.EVENT_KEYS` order), credited to the run's
stats so remote runs report ``events_by_source`` too.

Failure model and the rebatching invariant
------------------------------------------

A batch is one reply or nothing: nothing of a batch is yielded before
its reply has arrived whole and checked.  A recv timeout, a broken
connection, a checksum mismatch or a protocol violation marks the
worker dead; every batch that was outstanding on it is returned to the
scheduler's pending heap **by batch id**, so surviving workers pick
orphans up in the original dispatch order.  A re-dispatched batch
re-runs pure units, so its values are the ones the dead worker would
have sent.  The run fails with :class:`DistributedError` when a worker
reports an error (a trial raised, or returned a value JSON cannot
carry — pure trials fail identically everywhere) or when every worker
is dead while batches remain.  Connection attempts retry with capped
exponential backoff, sleeping only between attempts.

Dispatch pipelining
-------------------

Each feeder keeps up to :data:`PIPELINE_DEPTH` batches in flight: the
next batch is sent while the previous one is still computing, so the
worker never idles between batches waiting on a coordinator
round-trip.  Replies are strictly FIFO per connection, so the feeder
keeps a FIFO of the batch ids it is owed.
"""

from __future__ import annotations

import heapq
import json
import os
import socket
import threading
import time
from _blake2 import blake2b
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exp import spec as spec_mod
from repro.exp.errors import DistributedError
from repro.exp.runner import (
    ExecutionPlan,
    ExecutorBackend,
    ExecutionStats,
    batch_event_counts,
    resolve_function_ref,
    run_unit_batch,
)

MAGIC = b"RXP1"
#: The retired digest-ack magic: still read, so a peer that frames a
#: message under it is understood, but nothing here sends it.
DIGEST_MAGIC = b"RXD1"
PROTOCOL_VERSION = 5
CHECKSUM_BYTES = 8
HEADER_BYTES = len(MAGIC) + 4 + CHECKSUM_BYTES
#: Refuse absurd frames before allocating for them (64 MiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds a coordinator waits for one batch result before declaring the
#: worker dead.  Generous: a batch is at most a few dozen missions.
DEFAULT_BATCH_TIMEOUT = 300.0
#: Connection retry schedule: capped exponential backoff.
CONNECT_ATTEMPTS = 5
CONNECT_BACKOFF_BASE = 0.2
CONNECT_BACKOFF_CAP = 2.0

#: Dispatches a feeder keeps in flight per worker connection.  Depth 2
#: hides one full coordinator->worker round-trip behind each batch's
#: compute time; deeper pipelines only delay failover (more orphans per
#: dead worker) without adding overlap.
PIPELINE_DEPTH = 2


class ProtocolError(DistributedError):
    """A frame or message violated the wire protocol."""


class WireStats:
    """Thread-safe byte counters for one coordinator's socket traffic.

    ``bytes_out`` is everything the coordinator sent (dispatch path),
    ``bytes_in`` everything it received (return path) — header bytes
    included, because what they measure is the wire.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_in = 0
        self.bytes_out = 0

    def sent(self, count: int) -> None:
        """Count ``count`` bytes written to a worker socket."""
        with self._lock:
            self.bytes_out += count

    def received(self, count: int) -> None:
        """Count ``count`` bytes read from a worker socket."""
        with self._lock:
            self.bytes_in += count


def _checksum(payload: bytes) -> bytes:
    return blake2b(payload, digest_size=CHECKSUM_BYTES).digest()


def _frame(message: Dict[str, Any], magic: bytes = MAGIC) -> bytes:
    """One message as frame bytes; raises if JSON cannot carry it.

    Keys are deliberately NOT sorted: trial results round-trip through
    this frame, and the store persists them with insertion order intact
    — sorting here would make remote cell files differ from serial ones
    byte-for-byte.
    """
    payload = json.dumps(message).encode("utf-8")
    return b"".join(
        (magic, len(payload).to_bytes(4, "big"), _checksum(payload), payload)
    )


def send_msg(sock: socket.socket, message: Dict[str, Any],
             magic: bytes = MAGIC, wire: Optional[WireStats] = None) -> None:
    """Serialise and send one framed message."""
    frame = _frame(message, magic)
    sock.sendall(frame)
    if wire is not None:
        wire.sent(len(frame))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket,
             wire: Optional[WireStats] = None) -> Dict[str, Any]:
    """Receive and validate one framed message.

    Raises :class:`ProtocolError` on bad magic, oversize frames or a
    checksum mismatch, and :class:`ConnectionError` on a half-closed
    peer — both of which the coordinator treats as a dead worker.
    """
    header = _recv_exact(sock, HEADER_BYTES)
    magic = header[:4]
    if magic not in (MAGIC, DIGEST_MAGIC):
        raise ProtocolError(f"bad frame magic {magic!r}")
    length = int.from_bytes(header[4:8], "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol cap")
    digest = header[8:HEADER_BYTES]
    payload = _recv_exact(sock, length)
    if wire is not None:
        wire.received(HEADER_BYTES + length)
    if _checksum(payload) != digest:
        raise ProtocolError("frame checksum mismatch (corrupted payload)")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed message object")
    return message


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; raises on malformed input."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise DistributedError(f"worker address {text!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise DistributedError(f"worker address {text!r} has a non-numeric port") from exc
    if not 0 <= port < 65536:
        raise DistributedError(f"worker address {text!r} port out of range")
    return host, port  # port 0 = OS-assigned (listen side only)


def _connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Connect with capped exponential backoff; raise after the budget."""
    last: Optional[Exception] = None
    for attempt in range(CONNECT_ATTEMPTS):
        if attempt:  # back off between attempts, never after the last
            time.sleep(min(CONNECT_BACKOFF_CAP,
                           CONNECT_BACKOFF_BASE * 2 ** (attempt - 1)))
        try:
            sock = socket.create_connection(address, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
    raise DistributedError(
        f"cannot connect to worker {address[0]}:{address[1]} "
        f"after {CONNECT_ATTEMPTS} attempts: {last}"
    )


class _BatchScheduler:
    """Thread-safe batch dispenser with deterministic orphan rebatching.

    Batches enter the pending heap keyed by their original dispatch id;
    feeder threads ``acquire`` the smallest pending id, and a dead
    worker's outstanding batches are ``abandon``-ed back into the heap —
    so survivors drain orphans in the original order, and a re-run with
    the same failure pattern re-dispatches identically.  The plan is
    done only when every batch has *completed* (not merely left the
    queue): survivors therefore block in ``acquire`` while batches are
    outstanding elsewhere, ready to adopt them if their worker dies.
    """

    def __init__(self, batches: Sequence[List[Any]]):
        self._cond = threading.Condition()
        self._batches = {bid: batch for bid, batch in enumerate(batches)}
        self._pending: List[int] = list(range(len(batches)))
        heapq.heapify(self._pending)
        self._outstanding: Dict[int, str] = {}
        self._done: set = set()
        self._failure: Optional[Exception] = None

    def acquire(self, worker: str) -> Optional[Tuple[int, List[Any]]]:
        """The next pending (id, batch), or ``None`` when the plan is done.

        Blocks while other workers hold outstanding batches that might
        yet be abandoned back to us.
        """
        with self._cond:
            while True:
                if self._failure is not None:
                    return None
                if self._pending:
                    bid = heapq.heappop(self._pending)
                    self._outstanding[bid] = worker
                    return bid, self._batches[bid]
                if len(self._done) == len(self._batches):
                    return None
                self._cond.wait(timeout=0.5)

    def acquire_nowait(self, worker: str) -> Optional[Tuple[int, List[Any]]]:
        """The next pending (id, batch) if one is ready *right now*.

        The pipelining hook: a feeder with replies already in flight
        must not block here — ``None`` just means "nothing to pipeline
        at this instant", not "the plan is done".
        """
        with self._cond:
            if self._failure is not None or not self._pending:
                return None
            bid = heapq.heappop(self._pending)
            self._outstanding[bid] = worker
            return bid, self._batches[bid]

    def complete(self, bid: int) -> None:
        """Mark one batch finished (its results are fully received)."""
        with self._cond:
            self._outstanding.pop(bid, None)
            self._done.add(bid)
            self._cond.notify_all()

    def abandon(self, worker: str) -> List[int]:
        """Return a dead worker's outstanding batches to the heap."""
        with self._cond:
            orphaned = sorted(
                bid for bid, owner in self._outstanding.items()
                if owner == worker
            )
            for bid in orphaned:
                del self._outstanding[bid]
                heapq.heappush(self._pending, bid)
            self._cond.notify_all()
            return orphaned

    def fail(self, exc: Exception) -> None:
        """Abort the plan: wake every feeder with a terminal failure."""
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    @property
    def failure(self) -> Optional[Exception]:
        with self._cond:
            return self._failure

    def unfinished(self) -> int:
        with self._cond:
            return len(self._batches) - len(self._done)


class RemoteBackend(ExecutorBackend):
    """Coordinator: fan the plan's unit batches over TCP workers.

    One feeder thread per worker address; each thread owns its socket
    and loops acquire → send → receive → complete, pushing results onto
    a queue the ``execute`` generator drains (store writes therefore
    happen on the caller's thread, preserving the streaming/resume
    contract).  Worker death at any point — connect failure after
    backoff, batch timeout, broken frame — abandons that worker's
    outstanding batches for the survivors.  Only when *no* worker
    remains does the run raise :class:`DistributedError`.
    """

    name = "remote"

    def __init__(self, workers: Sequence[str],
                 batch_timeout: float = DEFAULT_BATCH_TIMEOUT,
                 connect_timeout: float = 10.0):
        if not workers:
            raise DistributedError("remote backend needs at least one worker")
        self.addresses = [parse_address(w) for w in workers]
        for text, (_host, port) in zip(workers, self.addresses):
            if port == 0:  # OS-assigned: a worker can listen there, nobody can dial it
                raise DistributedError(f"worker address {text!r}: port 0 is only valid for --listen")
        self.batch_timeout = batch_timeout
        self.connect_timeout = connect_timeout

    # -- feeder thread ------------------------------------------------

    def _feed(self, label: str, sock: socket.socket,
              scheduler: _BatchScheduler, stats: ExecutionStats,
              out: List[Any], out_cond: threading.Condition,
              wire: WireStats) -> None:
        """The feeder loop: unit batches out, one results frame back each.

        A batch's pairs are handed over — and the batch completed — only
        once its whole reply has arrived and names exactly the units
        sent, so a worker that dies or misbehaves mid-batch leaves the
        batch to be re-dispatched whole.
        """
        in_flight: Deque[Tuple[int, List[Any]]] = deque()
        while True:
            while len(in_flight) < PIPELINE_DEPTH:
                item = (scheduler.acquire(label) if not in_flight
                        else scheduler.acquire_nowait(label))
                if item is None:
                    break
                bid, units = item
                send_msg(sock, {"type": "units", "id": bid, "units": units},
                         wire=wire)
                in_flight.append(item)
            if not in_flight:
                return  # blocking acquire said: plan done (or failed)
            bid, units = in_flight.popleft()
            reply = recv_msg(sock, wire=wire)
            if reply.get("type") == "error":
                scheduler.fail(DistributedError(
                    f"worker {label} batch {bid}: {reply.get('message')}"
                ))
                return
            try:
                pairs = [(index, value) for index, value in reply["results"]]
                valid = (reply["type"] == "results" and reply["id"] == bid
                         and [pair[0] for pair in pairs]
                         == [unit[0] for unit in units])
            except (KeyError, TypeError, ValueError):
                valid = False
            if not valid:
                raise ProtocolError(
                    f"worker {label} sent {reply.get('type')!r} (id "
                    f"{reply.get('id')}) that is not the results of "
                    f"batch {bid}"
                )
            scheduler.complete(bid)
            with out_cond:  # also serialises the feeders' credits
                stats.record_event_counts(reply.get("ev", ()))
                out.append(pairs)
                out_cond.notify()

    def _feed_worker(self, label: str, address: Tuple[str, int],
                     hello: Dict[str, Any], scheduler: _BatchScheduler,
                     stats: ExecutionStats, out: List[Any],
                     out_cond: threading.Condition, dead: Dict[str, str],
                     wire: WireStats) -> None:
        sock: Optional[socket.socket] = None
        try:
            sock = _connect(address, self.connect_timeout)
            sock.settimeout(self.batch_timeout)
            send_msg(sock, hello, wire=wire)
            ready = recv_msg(sock, wire=wire)
            if ready.get("type") != "ready":
                reason = ready.get("message") or f"sent {ready.get('type')!r}"
                raise ProtocolError(f"worker {label} refused the hello: {reason}")
            self._feed(label, sock, scheduler, stats, out, out_cond, wire)
            try:
                send_msg(sock, {"type": "bye"}, wire=wire)
            except OSError:
                pass
        except (DistributedError, ConnectionError, OSError) as exc:
            dead[label] = str(exc)
            scheduler.abandon(label)
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            with out_cond:
                out_cond.notify()

    # -- coordinator --------------------------------------------------

    def execute(self, plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
        """Fan the plan's batches over the workers, yielding as they land.

        One feed thread per worker; the ``(index, value)`` pairs are
        yielded on the caller's thread (so store writes stay on the
        coordinator), in completion order — the runner's merge is
        order-independent.  Raises :class:`DistributedError` when a
        worker reports an error or every worker is dead with batches
        still unfinished.
        """
        batches = plan.batches()
        plan.stats.record_batches(len(batches))
        spec = plan.spec
        hello = {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "trial": spec_mod.function_ref(spec.trial),
            "code": spec_mod.code_digest(spec.trial),
        }
        wire = WireStats()
        scheduler = _BatchScheduler(batches)
        out: List[List[Tuple[int, Any]]] = []
        out_cond = threading.Condition()
        dead: Dict[str, str] = {}
        threads: List[threading.Thread] = []
        for idx, address in enumerate(self.addresses):
            label = f"{address[0]}:{address[1]}#{idx}"
            thread = threading.Thread(
                target=self._feed_worker,
                args=(label, address, hello, scheduler, plan.stats, out,
                      out_cond, dead, wire),
                name=f"repro-remote-{label}",
                daemon=True,
            )
            threads.append(thread)
            thread.start()
        try:
            while True:
                with out_cond:
                    while (not out and any(t.is_alive() for t in threads)
                           and scheduler.failure is None):
                        out_cond.wait(timeout=0.5)
                    landed, out[:] = list(out), []
                for pairs in landed:
                    yield from pairs
                failure = scheduler.failure
                if failure is not None:
                    raise failure
                if not any(t.is_alive() for t in threads):
                    break
            if scheduler.unfinished():
                details = "; ".join(
                    f"{label}: {reason}" for label, reason in dead.items()
                ) or "no worker details"
                raise DistributedError(
                    f"all {len(self.addresses)} worker(s) died with "
                    f"{scheduler.unfinished()} batch(es) unfinished "
                    f"({details})"
                )
            # drain replies that landed between the last wait and thread exit
            with out_cond:
                landed, out[:] = list(out), []
            for pairs in landed:
                yield from pairs
        finally:
            scheduler.fail(DistributedError("coordinator shut down"))
            for thread in threads:
                thread.join(timeout=2.0)
            plan.stats.record_wire(wire.bytes_in, wire.bytes_out)


# ---------------------------------------------------------------------------
# Worker server
# ---------------------------------------------------------------------------


def _resolve_hello(hello: Dict[str, Any]) -> Any:
    """Check a hello and resolve its trial function.

    Raises :class:`ProtocolError` saying why this worker cannot honour
    it — the reason travels back to the coordinator in an ``error``
    frame, so a version skew, an unimportable trial or code that differs
    from the coordinator's is reported by name instead of as a closed
    socket.
    """
    if hello.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
    if hello.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: coordinator speaks "
            f"{hello.get('version')}, worker speaks {PROTOCOL_VERSION}"
        )
    trial_ref = hello.get("trial")
    try:
        trial_fn = resolve_function_ref(trial_ref)
    except Exception as exc:  # noqa: BLE001 - whatever an import raises
        raise ProtocolError(
            f"cannot resolve trial {trial_ref!r} on this worker: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    code = spec_mod.code_digest(trial_fn)
    if hello.get("code") != code:
        raise ProtocolError(
            f"code digest skew between hosts: {trial_ref!r} runs code "
            f"{code} on this worker, {hello.get('code')} on the coordinator"
        )
    return trial_fn


def _batch_reply(message: Dict[str, Any], trial_fn: Any) -> bytes:
    """Run one units batch; its framed results reply, or an error frame."""
    bid = message.get("id")
    batch_event_counts()  # scope the counters to this batch
    try:
        results = run_unit_batch(trial_fn, message["units"])
    except Exception as exc:  # noqa: BLE001 - shipped to coordinator
        return _frame({"type": "error", "id": bid,
                       "message": f"{type(exc).__name__}: {exc}"})
    try:
        return _frame({"type": "results", "id": bid, "results": results,
                       "ev": batch_event_counts()})
    except (TypeError, ValueError) as exc:
        return _frame({"type": "error", "id": bid,
                       "message": f"trial result is not JSON-serialisable "
                                  f"({exc})"})


def _serve_connection(conn: socket.socket,
                      batch_budget: List[Optional[int]]) -> None:
    """Drive one coordinator conversation on an accepted connection."""
    hello = recv_msg(conn)
    try:
        trial_fn = _resolve_hello(hello)
    except ProtocolError as exc:
        send_msg(conn, {"type": "error", "message": str(exc)})
        raise
    send_msg(conn, {"type": "ready"})
    while True:
        message = recv_msg(conn)
        kind = message.get("type")
        if kind == "bye":
            return
        if kind != "units":
            raise ProtocolError(f"expected units or bye, got {kind!r}")
        conn.sendall(_batch_reply(message, trial_fn))
        if batch_budget[0] is not None:
            batch_budget[0] -= 1
            if batch_budget[0] <= 0:
                # crash-test hook: hard exit *after* replying, so the
                # coordinator has this batch but loses the connection
                conn.close()
                os._exit(0)


def serve(host: str, port: int, max_batches: Optional[int] = None) -> None:
    """Run a ``repro worker``: accept coordinators until interrupted.

    One coordinator at a time (the protocol is strictly request/reply
    per connection); each batch runs through the shared
    :func:`~repro.exp.runner.run_unit_batch` body and is answered with
    one results frame.  The worker keeps nothing between batches.

    ``max_batches`` hard-exits the process after N answered batches —
    the deterministic worker-crash hook the failover tests use.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(4)
    bound = server.getsockname()
    # the readiness line scripts wait for before launching the campaign
    print(f"repro worker listening on {bound[0]}:{bound[1]}", flush=True)
    budget: List[Optional[int]] = [max_batches]
    try:
        while True:
            conn, _addr = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                _serve_connection(conn, budget)
            except Exception as exc:  # noqa: BLE001 - a bad coordinator
                # (broken frame, unresolvable trial ref) must not take
                # the worker down; it just costs that one connection
                print(f"repro worker: connection failed: {exc}", flush=True)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
    except KeyboardInterrupt:
        pass
    finally:
        server.close()

