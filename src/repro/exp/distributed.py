"""Fan-out for both parallel backends: framed sockets to worker processes.

The ``exp.run`` contract — pure trials, blake2b-derived seeds,
order-independent merge by unit index — is machine-agnostic, so
``local`` and ``remote`` share one transport, dispatch loop and failure
model.  They differ only in where a worker's socket comes from:
:class:`RemoteBackend` dials ``repro worker`` processes over TCP,
:func:`execute_forked` (``local``) forks workers onto socketpair ends.
One :mod:`selectors` loop on the caller's thread (:class:`_FanOut`)
drives every worker socket.  It keeps up to :data:`PIPELINE_DEPTH`
batches of ``(index, seed, params)`` units in flight per worker and
refills a reply's slot before yielding its pairs to the runner's
assembler, so the worker computes the next batch while the caller
stores the last.  The worker (:func:`_serve_connection`) runs each
batch through :func:`~repro.exp.runner.run_unit_batch` and answers
with one frame; replies are FIFO per connection.

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
stats so parallel runs report ``events_by_source`` too.

Failure model and the rebatching invariant
------------------------------------------

A batch is one reply or nothing: nothing of a batch is yielded before
its reply has arrived whole and checked.  Each worker has one deadline,
its last progress plus ``batch_timeout``, that runs while it owes the
coordinator a reply.  A passed deadline, a broken connection, a checksum
mismatch or a protocol violation marks the worker dead; every batch that
was outstanding on it goes back to the pending heap **by batch id**, so
surviving workers pick orphans up in the original dispatch order.  A
re-dispatched batch re-runs pure units, so its values are the ones the
dead worker would have sent.  The run fails with
:class:`DistributedError` the moment a worker reports an error (a trial
raised, or returned a value JSON cannot carry — pure trials fail
identically everywhere) or every worker is dead while batches remain;
either way every socket is closed before the error reaches the caller.
A remote worker is dialled inside the loop, retrying with capped
exponential backoff between attempts, so a reachable worker never waits
on an unreachable one.  A forked worker exits on EOF when its
coordinator dies; the coordinator reaps its forked workers however the
run ends, SIGKILLing any past :data:`REAP_TIMEOUT`, or at once if the
run failed.
"""

from __future__ import annotations

import heapq
import json
import os
import selectors
import signal
import socket
import time
from _blake2 import blake2b
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exp import spec as spec_mod
from repro.exp.errors import DistributedError
from repro.exp.runner import (
    ExecutionPlan,
    ExecutorBackend,
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

#: Seconds forked workers get to exit after their conversations end.
REAP_TIMEOUT = 5.0

#: Dispatches kept in flight per worker connection.  Depth 2 hides one
#: full coordinator->worker round-trip behind each batch's compute time;
#: deeper pipelines only delay failover (more orphans per dead worker)
#: without adding overlap.
PIPELINE_DEPTH = 2


class ProtocolError(DistributedError):
    """A frame or message violated the wire protocol."""


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
             magic: bytes = MAGIC) -> None:
    """Serialise and send one framed message."""
    sock.sendall(_frame(message, magic))


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


def _payload_length(header: bytes) -> int:
    """The payload byte count a frame header announces, once its magic
    and size are checked."""
    magic = header[:4]
    if magic not in (MAGIC, DIGEST_MAGIC):
        raise ProtocolError(f"bad frame magic {magic!r}")
    length = int.from_bytes(header[4:8], "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol cap")
    return length


def recv_msg(sock: socket.socket) -> Dict[str, Any]:
    """Receive and validate one framed message.

    Raises :class:`ProtocolError` on bad magic, oversize frames or a
    checksum mismatch, and :class:`ConnectionError` on a half-closed
    peer — both of which the coordinator treats as a dead worker.
    """
    header = _recv_exact(sock, HEADER_BYTES)
    payload = _recv_exact(sock, _payload_length(header))
    return _cut_frame(bytearray(header + payload))


def _cut_frame(buffer: bytearray) -> Optional[Dict[str, Any]]:
    """Take the first whole frame off ``buffer`` and return its checked
    message, or ``None`` while the frame is still incomplete."""
    if len(buffer) < HEADER_BYTES:
        return None
    header = bytes(buffer[:HEADER_BYTES])
    end = HEADER_BYTES + _payload_length(header)
    if len(buffer) < end:
        return None
    payload = bytes(buffer[HEADER_BYTES:end])
    del buffer[:end]
    if _checksum(payload) != header[8:]:
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


def _backoff(attempts: int) -> float:
    """Seconds to wait after ``attempts`` failed connection attempts."""
    return min(CONNECT_BACKOFF_CAP, CONNECT_BACKOFF_BASE * 2 ** (attempts - 1))


def _hello(spec: Any) -> Dict[str, Any]:
    """The hello a coordinator opens every worker conversation with."""
    return {"type": "hello", "version": PROTOCOL_VERSION,
            "trial": spec_mod.function_ref(spec.trial),
            "code": spec_mod.code_digest(spec.trial)}


class _Worker:
    """One worker conversation, as the fan-out loop holds it.

    ``sock`` is ``None`` while a remote worker waits to be dialled (again);
    ``in_flight`` holds the ids of the batches it owes replies for, oldest
    first (replies are FIFO per connection); ``deadline`` is when the loop
    next acts on it: redial it, give up on a connect, or — while it owes a
    reply — declare it dead.
    """

    def __init__(self, label: str, sock: Optional[socket.socket] = None,
                 address: Optional[Tuple[str, int]] = None):
        self.label, self.sock, self.address = label, sock, address
        self.attempts, self.connecting, self.ready = 0, False, False
        self.inbox, self.outbox = bytearray(), bytearray()
        self.in_flight: Deque[int] = deque()
        self.deadline = 0.0

    @property
    def idle(self) -> bool:
        """Ready and owed nothing: no deadline runs."""
        return self.ready and not self.in_flight


class _FanOut:
    """Fan a plan's batches over worker conversations from one thread.

    Iterating yields ``(unit index, value)`` pairs in completion order.
    Raises :class:`DistributedError` when a worker reports an error or
    every worker is dead with batches unfinished; every socket is closed
    however the iteration ends.
    """

    def __init__(self, plan: ExecutionPlan, hello: Dict[str, Any],
                 workers: Sequence[_Worker], batch_timeout: float,
                 connect_timeout: float = 0.0):
        self.stats = plan.stats
        self.batches = plan.batches()
        self.stats.record_batches(len(self.batches))
        self.pending = list(range(len(self.batches)))  # a heap of batch ids
        self.unfinished = len(self.batches)
        self.hello = _frame(hello)
        self.workers, self.live = list(workers), list(workers)
        self.dead: Dict[str, str] = {}
        self.batch_timeout, self.connect_timeout = batch_timeout, connect_timeout
        self.bytes_in = self.bytes_out = 0
        self.selector = selectors.DefaultSelector()
        for worker in self.workers:
            if worker.sock is not None:
                worker.sock.setblocking(False)
                self.selector.register(worker.sock, selectors.EVENT_READ, worker)

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        try:
            for worker in self.workers:
                if worker.sock is None:
                    self._dial(worker)
                else:
                    self._greet(worker)
            while self.unfinished:
                if not self.live:
                    details = "; ".join(f"{label}: {reason}"
                                        for label, reason in self.dead.items())
                    raise DistributedError(
                        f"all {len(self.workers)} worker(s) died with "
                        f"{self.unfinished} batch(es) unfinished ({details})")
                for worker in list(self.live):
                    self._fill(worker)
                deadline = min((w.deadline for w in self.live if not w.idle),
                               default=time.monotonic() + self.batch_timeout)
                events = self.selector.select(max(0.0, deadline - time.monotonic()))
                # read before any pairs are yielded, so the caller's store
                # writes never count against a deadline
                now = time.monotonic()
                for key, mask in events:
                    worker = key.data
                    if worker.sock is not key.fileobj:
                        continue  # dropped while this event waited
                    if worker.connecting:
                        self._connected(worker)
                        continue
                    if mask & selectors.EVENT_WRITE:
                        self._flush(worker)
                    if mask & selectors.EVENT_READ and worker.sock is not None:
                        yield from self._read(worker)
                self._expire(now)
            bye = _frame({"type": "bye"})
            for worker in self.live:
                if worker.sock is not None and not worker.connecting:
                    self._send(worker, bye)
        finally:
            for worker in self.workers:
                self._close(worker)
            self.selector.close()
            self.stats.record_wire(self.bytes_in, self.bytes_out)

    def _dial(self, worker: _Worker) -> None:
        """Start one connection attempt; the socket turns writable when it
        ends.  IPv4 only, as ``repro worker`` listens."""
        worker.attempts += 1
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            sock.connect(worker.address)
        except BlockingIOError:
            pass
        except OSError as exc:
            sock.close()
            self._retry(worker, exc)
            return
        worker.sock, worker.connecting = sock, True
        worker.deadline = time.monotonic() + self.connect_timeout
        self.selector.register(sock, selectors.EVENT_WRITE, worker)

    def _connected(self, worker: _Worker) -> None:
        code = worker.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if code:
            self._close(worker)
            self._retry(worker, OSError(code, os.strerror(code)))
            return
        worker.connecting = False
        worker.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._greet(worker)

    def _retry(self, worker: _Worker, error: Exception) -> None:
        """Back off before the next connection attempt, or give up."""
        if worker.attempts < CONNECT_ATTEMPTS:
            worker.deadline = time.monotonic() + _backoff(worker.attempts)
            return
        host, port = worker.address
        self._drop(worker, f"cannot connect to worker {host}:{port} after "
                           f"{CONNECT_ATTEMPTS} attempts: {error}")

    def _greet(self, worker: _Worker) -> None:
        worker.deadline = time.monotonic() + self.batch_timeout
        self._send(worker, self.hello)

    def _fill(self, worker: _Worker) -> None:
        """Top the worker's pipeline up from the pending heap."""
        while (worker.ready and worker.sock is not None and self.pending
               and len(worker.in_flight) < PIPELINE_DEPTH):
            if not worker.in_flight:
                worker.deadline = time.monotonic() + self.batch_timeout
            bid = heapq.heappop(self.pending)
            worker.in_flight.append(bid)
            self._send(worker, _frame({"type": "units", "id": bid,
                                       "units": self.batches[bid]}))

    def _read(self, worker: _Worker) -> List[Tuple[int, Any]]:
        """Take what the socket holds: the pairs of each whole, checked
        reply (its worker already refilled), or drop the worker."""
        landed: List[Tuple[int, Any]] = []
        try:
            chunk = worker.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError(
                    f"peer closed the connection ({len(worker.inbox)} "
                    f"bytes of a frame read)")
            self.bytes_in += len(chunk)
            worker.deadline = time.monotonic() + self.batch_timeout
            worker.inbox += chunk
            while worker.sock is not None:
                message = _cut_frame(worker.inbox)
                if message is None:
                    break
                landed += self._answer(worker, message)
        except BlockingIOError:
            pass
        except (ProtocolError, OSError) as exc:
            self._drop(worker, str(exc))
        return landed

    def _answer(self, worker: _Worker,
                message: Dict[str, Any]) -> List[Tuple[int, Any]]:
        """Act on one message: the ready, or a batch's results."""
        kind = message.get("type")
        if not worker.ready:
            if kind != "ready":
                reason = message.get("message") or f"sent {kind!r}"
                raise ProtocolError(
                    f"worker {worker.label} refused the hello: {reason}")
            worker.ready = True
            return []
        bid = worker.in_flight[0] if worker.in_flight else None
        if kind == "error":
            raise DistributedError(
                f"worker {worker.label} batch {bid}: {message.get('message')}")
        try:
            pairs = [(index, value) for index, value in message["results"]]
            valid = (kind == "results" and bid is not None
                     and message["id"] == bid
                     and [pair[0] for pair in pairs]
                     == [unit[0] for unit in self.batches[bid]])
        except (KeyError, TypeError, ValueError):
            valid = False
        if not valid:
            raise ProtocolError(
                f"worker {worker.label} sent {kind!r} (id "
                f"{message.get('id')}) that is not the results of "
                f"batch {bid}")
        worker.in_flight.popleft()
        self.unfinished -= 1
        self.stats.record_event_counts(message.get("ev", ()))
        self._fill(worker)
        return pairs

    def _send(self, worker: _Worker, frame: bytes) -> None:
        worker.outbox += frame
        self._flush(worker)

    def _flush(self, worker: _Worker) -> None:
        """Write what the socket takes; watch for room while bytes remain."""
        try:
            sent = worker.sock.send(worker.outbox)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            self._drop(worker, str(exc))
            return
        self.bytes_out += sent
        del worker.outbox[:sent]
        self.selector.modify(worker.sock, selectors.EVENT_READ | (
            selectors.EVENT_WRITE if worker.outbox else 0), worker)

    def _expire(self, now: float) -> None:
        """Act on every deadline that has passed."""
        for worker in list(self.live):
            if worker.idle or now < worker.deadline:
                continue
            if worker.sock is None:
                self._dial(worker)
            elif worker.connecting:
                self._close(worker)
                self._retry(worker, TimeoutError("connect timed out"))
            else:
                self._drop(worker, f"no reply within {self.batch_timeout:g} s")

    def _close(self, worker: _Worker) -> None:
        if worker.sock is not None:
            self.selector.unregister(worker.sock)
            worker.sock.close()
            worker.sock, worker.connecting = None, False

    def _drop(self, worker: _Worker, reason: str) -> None:
        """Mark the worker dead and heap its outstanding batches again."""
        if worker not in self.live:
            return
        self.live.remove(worker)
        self.dead[worker.label] = reason
        self._close(worker)
        for bid in worker.in_flight:
            heapq.heappush(self.pending, bid)
        worker.in_flight.clear()


class RemoteBackend(ExecutorBackend):
    """Coordinator: fan the plan's unit batches over TCP workers.

    Each address is dialled inside the fan-out loop, so a worker that
    cannot be reached after backoff is one more dead worker; only when
    *no* worker remains does the run fail.
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

    def execute(self, plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
        """Fan the plan's batches over the workers, yielding as they land."""
        workers = [_Worker(f"{host}:{port}#{idx}", address=(host, port))
                   for idx, (host, port) in enumerate(self.addresses)]
        yield from _FanOut(plan, _hello(plan.spec), workers,
                           self.batch_timeout, self.connect_timeout)


# ---------------------------------------------------------------------------
# Forked workers (the local backend)
# ---------------------------------------------------------------------------


def execute_forked(plan: ExecutionPlan) -> Iterator[Tuple[int, Any]]:
    """The local backend's fan-out: the plan's batches on forked workers.

    Forks ``min(plan.worker_count, batches)`` children, each on one
    socketpair end, before the fan-out loop starts and after the hello
    (so they inherit its memoised code digest), and reaps them however
    the run ends: after a clean end, SIGKILLing any still running after
    :data:`REAP_TIMEOUT`; when the fan-out raises or is closed early, at
    once, so a failed run does not wait out the other workers' batches.
    """
    hello = _hello(plan.spec)
    ends: List[socket.socket] = []
    pids: List[int] = []
    clean = False
    try:
        for _ in range(min(plan.worker_count, len(plan.batches()))):
            ours, theirs = socket.socketpair()
            ends.append(ours)
            pid = os.fork()
            if pid == 0:
                _serve_forked(theirs, ends)
            theirs.close()
            pids.append(pid)
        workers = [_Worker(f"local#{idx} (pid {pid})", sock=end)
                   for idx, (pid, end) in enumerate(zip(pids, ends))]
        yield from _FanOut(plan, hello, workers, DEFAULT_BATCH_TIMEOUT)
        clean = True
    finally:
        for end in ends:
            end.close()
        _reap(pids, REAP_TIMEOUT if clean else 0.0)


def _serve_forked(sock: socket.socket,
                  coordinator_ends: Sequence[socket.socket]) -> None:
    """A forked worker's life: one conversation, then ``os._exit`` (no
    parent teardown).  With the coordinator's ends closed here, the
    coordinator is the only peer, so its death reads as EOF."""
    code = 1
    try:
        for end in coordinator_ends:
            end.close()
        _serve_connection(sock, [None])
        code = 0
    finally:
        os._exit(code)


def _reap(pids: Sequence[int], timeout: float) -> None:
    """Wait for forked workers to exit; SIGKILL those past the deadline."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.001)
        except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored)
            pass


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

