"""Remote execution backend: TCP fan-out to ``repro worker`` processes.

The ``exp.run`` contract — pure trials, blake2b-derived seeds,
order-independent cell merge — is machine-agnostic, so a campaign can
fan its unit batches over worker processes on other hosts exactly as it
fans them over a local pool.  This module supplies both halves:

* :class:`RemoteBackend` — the coordinator.  One feeder thread per
  worker pulls batches of whole cells from a shared
  :class:`_BatchScheduler`, ships them over a framed TCP connection and
  streams the finished cells back into the caller's merge loop, so they
  hit the store the moment they are reconciled (``--resume`` keeps
  working mid-campaign).
* :func:`serve` — the worker.  ``repro worker --listen HOST:PORT``
  accepts one coordinator at a time and drains each cell through the
  same :func:`~repro.exp.runner.run_unit_batch` and
  :func:`~repro.exp.runner.finish_cell` bodies every other backend uses.

Wire protocol (version 3)
-------------------------

Every message is one *frame*::

    magic   b"RXP1" | b"RXD1"            (4 bytes)
    length  big-endian uint32            (payload byte count)
    digest  blake2b(payload, 8 bytes)    (integrity checksum)
    payload UTF-8 JSON object            (insertion-ordered keys: trial
                                          results must round-trip with
                                          their key order intact, or
                                          remote store bytes diverge)

``RXD1`` marks a *digest* frame — a worker's compact per-cell
acknowledgement; everything else travels under ``RXP1``.  Payloads
always carry a ``"type"`` key.  The conversation::

    coordinator -> worker   {"type": "hello", "version": 3, "spec": ...,
                             "spec_version": ..., "trial": "mod:fn",
                             "reduce": "mod:fn"|null}
    worker -> coordinator   {"type": "ready", "host": ..., "pid": ...,
                             "shadow": "/abs/path"}
                            (or an "error" frame saying why the hello
                             cannot be honoured, then the socket closes)

    # worker store shadowing: ~100 B/cell return path
    coordinator -> worker   {"type": "cells", "id": N, "cells":
                             [{"key":..., "params":..., "seeds":...,
                               "h": hash12}, ...]}
    worker -> coordinator   RXD1 {"type": "digest", "id": N, "cells":
                             [[key, hash12, file_digest, executed], ...],
                             "ev": [count, ...]}
    coordinator -> worker   {"type": "fetch", "id": N,
                             "cells": [[key, hash12], ...]}      # misses
    worker -> coordinator   {"type": "body", "id": N,
                             "cells": [[key, hash12, text], ...]}

    worker -> coordinator   {"type": "error", "id": N, "message": ...}
    coordinator -> worker   {"type": "bye"}

``"ev"`` is the batch's kernel event attribution (one short list of
counts per batch-complete frame, never per cell, in
:data:`~repro.exp.runner.EVENT_KEYS` order), credited to the run's
stats so remote runs report ``events_by_source`` too.

Worker store shadowing and the reconciliation invariant
-------------------------------------------------------

The worker runs, finishes and **persists each cell into its own
content-addressed shadow store** (same
:class:`~repro.exp.store.ResultStore` layout, default
``.repro-shadow/``), then acks only ``(key, hash12, file_digest,
executed)`` — the cell body never crosses the wire unless the
coordinator cannot recover it any other way (``fetch``/``body`` is the
only full-body route).  Reconciliation resolves
each acked cell in cost order:

1. **local store hit** — the coordinator's own store already holds the
   exact bytes (content digest matches): zero wire traffic;
2. **shadow read** — worker and coordinator share a filesystem (same
   hostname): the cell file is read straight out of the worker's shadow
   store, digest-verified;
3. **wire fetch** — the full body is fetched over the socket
   (``cells_shipped_full`` counts these).

The invariant: *whatever route the values take, the coordinator's store
bytes are identical to a serial run's.*  Cell files carry no
execution-strategy metadata and the coordinator re-persists through the
same assembler path as every other backend, so the bytes are a pure
function of cell identity + values.  The per-cell ``hash12`` echoed in
every ack lets both sides detect spec skew (mismatched trial source on
the worker) before any wrong bytes land.

Failure model and the rebatching invariant
------------------------------------------

Batches are *atomic*: a worker replies with the complete result (or
digest) of a batch or — as far as the coordinator is concerned — with
nothing.  A recv timeout, a broken connection, a checksum mismatch or a
protocol violation marks the worker dead; every batch that was
outstanding on it (including batches mid-reconciliation, whose cells
have NOT yet been yielded) is returned to the scheduler's pending heap
**by batch id**, so surviving workers pick orphans up in the original
dispatch order — deterministic rebatching.  A worker that crashed
*after* persisting a cell to its shadow store but *before* its digest
ack is harmless: the re-dispatched cell re-runs from the same pure
inputs and re-persists the same bytes under the same content-addressed
name — no duplication is possible.  The run fails with
:class:`DistributedError` only when every worker is dead while batches
remain.  Connection attempts retry with capped exponential backoff.

Dispatch pipelining
-------------------

Each feeder keeps up to :data:`PIPELINE_DEPTH` dispatches in flight:
the next batch is sent while the previous digest frame is still being
computed, so the worker never idles between batches waiting on a
coordinator round-trip.  Replies are strictly FIFO per connection, so
the feeder tracks an expectation queue — a fetch issued for batch A
queues behind the digest frames of the batches already in flight.
"""

from __future__ import annotations

import heapq
import json
import os
import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exp import spec as spec_mod
from repro.exp.errors import DistributedError
from repro.exp.runner import (
    CompletedCell,
    ExecutionPlan,
    ExecutorBackend,
    batch_event_counts,
    finish_cell,
    function_ref,
    resolve_function_ref,
    run_unit_batch,
)
from repro.exp.store import FILE_DIGEST_BYTES, ResultStore, file_digest

try:  # blake2b is in hashlib everywhere we run, but keep the import local
    from hashlib import blake2b
except ImportError:  # pragma: no cover - python always ships blake2b
    blake2b = None  # type: ignore[assignment]

MAGIC = b"RXP1"
#: Frame magic of a worker's digest ack (the ~100 B/cell return path).
DIGEST_MAGIC = b"RXD1"
PROTOCOL_VERSION = 3
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

#: Default shadow-store root a worker persists completed cells into,
#: relative to the worker process's working directory.
DEFAULT_SHADOW_ROOT = ".repro-shadow"


class ProtocolError(DistributedError):
    """A frame or message violated the wire protocol."""


class WireStats:
    """Thread-safe byte counters for one coordinator's socket traffic.

    ``bytes_out`` is everything the coordinator sent (dispatch path),
    ``bytes_in`` everything it received (return path) — header bytes
    included, because the 150 B/cell budget is a *wire* budget.
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


def send_msg(sock: socket.socket, message: Dict[str, Any],
             magic: bytes = MAGIC, wire: Optional[WireStats] = None) -> None:
    """Serialise and send one framed message.

    Keys are deliberately NOT sorted: trial results round-trip through
    this frame, and the store persists them with insertion order intact
    — sorting here would make remote cell files differ from serial ones
    byte-for-byte.
    """
    payload = json.dumps(message).encode("utf-8")
    frame = b"".join(
        (magic, len(payload).to_bytes(4, "big"), _checksum(payload), payload)
    )
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


def recv_frame(sock: socket.socket,
               wire: Optional[WireStats] = None
               ) -> Tuple[bytes, Dict[str, Any]]:
    """Receive one framed message; returns ``(magic, message)``.

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
    return magic, message


def recv_msg(sock: socket.socket,
             wire: Optional[WireStats] = None) -> Dict[str, Any]:
    """Receive and validate one framed message (magic-agnostic view)."""
    _magic, message = recv_frame(sock, wire=wire)
    return message


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; raises on malformed input."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise DistributedError(
            f"worker address {text!r} is not of the form host:port"
        )
    try:
        port = int(port_text)
    except ValueError as exc:
        raise DistributedError(
            f"worker address {text!r} has a non-numeric port"
        ) from exc
    if not 0 <= port < 65536:
        raise DistributedError(f"worker address {text!r} port out of range")
    return host, port  # port 0 = OS-assigned (listen side only)


def _connect(address: Tuple[str, int], timeout: float) -> socket.socket:
    """Connect with capped exponential backoff; raise after the budget."""
    last: Optional[Exception] = None
    for attempt in range(CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection(address, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            delay = min(CONNECT_BACKOFF_CAP,
                        CONNECT_BACKOFF_BASE * (2 ** attempt))
            time.sleep(delay)
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


def _cell_wire_form(spec: "spec_mod.ExperimentSpec", trial: Any
                    ) -> Dict[str, Any]:
    """The dispatch form of one cell, including its identity hash12."""
    return {
        "key": trial.key,
        "params": dict(trial.params),
        "seeds": list(trial.seeds),
        "h": spec_mod.cell_hash(spec, trial)[:12],
    }


def _text_digest(text: str) -> str:
    """The content digest of a cell file's exact text."""
    return blake2b(text.encode("utf-8"),
                   digest_size=FILE_DIGEST_BYTES).hexdigest()


class RemoteBackend(ExecutorBackend):
    """Coordinator: fan the plan's cells over TCP workers.

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
                 connect_timeout: float = 10.0,
                 use_shadow: bool = True):
        if not workers:
            raise DistributedError("remote backend needs at least one worker")
        self.addresses = [parse_address(w) for w in workers]
        self.batch_timeout = batch_timeout
        self.connect_timeout = connect_timeout
        #: Allow same-host shadow reads during reconciliation.  Disable
        #: to force the wire-fetch fallback (tests and true-remote
        #: traffic measurements).
        self.use_shadow = use_shadow

    # -- feeder thread ------------------------------------------------

    def _hello(self, plan: ExecutionPlan) -> Dict[str, Any]:
        spec = plan.spec
        return {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "spec": spec.name,
            "spec_version": spec.version,
            "trial": function_ref(spec.trial),
            "reduce": None if spec.reduce is None else function_ref(spec.reduce),
        }

    def _cell_batches(self, plan: ExecutionPlan) -> List[List[Dict[str, Any]]]:
        """Group the plan's missing cells into dispatch batches.

        Cells are packed in spec order until a batch holds at least
        ``batch_size`` units — cell boundaries are never split, so a
        worker always assembles whole cells.
        """
        size = max(1, plan.batch_size)
        batches: List[List[Dict[str, Any]]] = []
        current: List[Dict[str, Any]] = []
        current_units = 0
        for trial, cell_units in plan.cells:
            current.append(_cell_wire_form(plan.spec, trial))
            current_units += len(cell_units)
            if current_units >= size:
                batches.append(current)
                current, current_units = [], 0
        if current:
            batches.append(current)
        return batches

    def _handshake(self, label: str, address: Tuple[str, int],
                   plan: ExecutionPlan, wire: WireStats
                   ) -> Tuple[socket.socket, Dict[str, Any]]:
        sock = _connect(address, self.connect_timeout)
        sock.settimeout(self.batch_timeout)
        try:
            send_msg(sock, self._hello(plan), wire=wire)
            ready = recv_msg(sock, wire=wire)
        except BaseException:
            sock.close()
            raise
        if ready.get("type") != "ready":
            sock.close()
            reason = ready.get("message") or f"sent {ready.get('type')!r}"
            raise ProtocolError(f"worker {label} refused the hello: {reason}")
        return sock, ready

    # -- reconciliation -----------------------------------

    def _reconcile_ack(
        self,
        plan: ExecutionPlan,
        trial_by_key: Dict[str, Any],
        ack: List[Any],
        shadow_dir: Optional[Path],
    ) -> Tuple[Optional[CompletedCell], Optional[Tuple[str, str, str]]]:
        """Resolve one digest ack without the wire, if possible.

        Returns ``(cell, None)`` when the values were recovered locally
        (coordinator store hit or shadow read) and ``(None, (key, h12,
        digest))`` when a wire fetch is needed.
        """
        key, h12, digest = str(ack[0]), str(ack[1]), str(ack[2])
        trial = trial_by_key.get(key)
        if trial is None:
            raise ProtocolError(f"digest ack for unknown cell {key!r}")
        expected_h12 = spec_mod.cell_hash(plan.spec, trial)[:12]
        if h12 != expected_h12:
            raise ProtocolError(
                f"cell {key!r}: worker acked hash {h12}, coordinator "
                f"expects {expected_h12} — trial source skew between hosts"
            )
        file_name = f"{spec_mod.cell_slug(key)}-{h12}.json"
        # 1. coordinator's own store already holds these exact bytes
        if plan.store is not None:
            local = plan.store.spec_dir(plan.spec) / file_name
            if local.is_file() and file_digest(local) == digest:
                values = _cell_values_from_text(
                    local.read_text(encoding="utf-8"), digest, key)
                return CompletedCell(key, values, fetched=False), None
        # 2. shared-filesystem shadow read (same host as the worker)
        if shadow_dir is not None:
            shadow = shadow_dir / file_name
            if shadow.is_file():
                try:
                    text = shadow.read_text(encoding="utf-8")
                except OSError:
                    text = None
                if text is not None and _text_digest(text) == digest:
                    values = _cell_values_from_text(text, digest, key)
                    return CompletedCell(key, values, fetched=False), None
        # 3. full body must cross the wire
        return None, (key, h12, digest)

    def _feed_worker_digest(
        self,
        label: str,
        sock: socket.socket,
        ready: Dict[str, Any],
        plan: ExecutionPlan,
        scheduler: _BatchScheduler,
        out: List[Any],
        out_cond: threading.Condition,
        wire: WireStats,
    ) -> None:
        """The feeder loop: cells out, digests back, fetch the misses.

        Replies on the connection are strictly FIFO, so the feeder keeps
        an *expectation queue*: each entry names the frame it is owed
        (a digest ack for a dispatched batch, or a body reply for a
        fetch).  A batch's cells are emitted — and the batch completed —
        only once every cell is reconciled, so a death mid-fetch
        abandons the whole batch, never half of one.
        """
        trial_by_key = {trial.key: trial for trial, _units in plan.cells}
        shadow_dir: Optional[Path] = None
        if (self.use_shadow and ready.get("shadow")
                and ready.get("host") == socket.gethostname()):
            shadow_dir = Path(ready["shadow"]) / plan.spec.name
        # expectation queue entries:
        #   ("digest", bid)                      -> RXD1 ack owed
        #   ("body", bid, done_cells, by_key)    -> fetch reply owed
        expected: Deque[Tuple[Any, ...]] = deque()
        while True:
            while len(expected) < PIPELINE_DEPTH:
                item = (scheduler.acquire(label) if not expected
                        else scheduler.acquire_nowait(label))
                if item is None:
                    break
                bid, cells = item
                send_msg(sock, {"type": "cells", "id": bid, "cells": cells},
                         wire=wire)
                expected.append(("digest", bid))
            if not expected:
                return  # blocking acquire said: plan done (or failed)
            entry = expected.popleft()
            magic, reply = recv_frame(sock, wire=wire)
            kind = reply.get("type")
            if kind == "error":
                scheduler.fail(DistributedError(
                    f"worker {label} batch {entry[1]}: {reply.get('message')}"
                ))
                return
            if entry[0] == "digest":
                bid = entry[1]
                if magic != DIGEST_MAGIC or kind != "digest" \
                        or reply.get("id") != bid:
                    raise ProtocolError(
                        f"worker {label} sent {kind!r} (id {reply.get('id')}) "
                        f"while digest ack {bid} was outstanding"
                    )
                with out_cond:  # serialises the feeders' credits
                    plan.stats.record_event_counts(reply.get("ev", ()))
                done: List[CompletedCell] = []
                needed: List[Tuple[str, str, str]] = []
                for ack in reply["cells"]:
                    cell, fetch = self._reconcile_ack(
                        plan, trial_by_key, ack, shadow_dir)
                    if cell is not None:
                        done.append(cell)
                    else:
                        needed.append(fetch)
                if needed:
                    send_msg(sock, {
                        "type": "fetch", "id": bid,
                        "cells": [[key, h12] for key, h12, _d in needed],
                    }, wire=wire)
                    expected.append(
                        ("body", bid, done,
                         {key: (h12, digest) for key, h12, digest in needed}))
                    continue
                self._emit_batch(scheduler, bid, done, out, out_cond)
            else:  # body reply owed
                _tag, bid, done, by_key = entry
                if magic != MAGIC or kind != "body" or reply.get("id") != bid:
                    raise ProtocolError(
                        f"worker {label} sent {kind!r} (id {reply.get('id')}) "
                        f"while fetch {bid} was outstanding"
                    )
                bodies = {str(key): str(text)
                          for key, _h12, text in reply["cells"]}
                if set(bodies) != set(by_key):
                    raise ProtocolError(
                        f"worker {label} fetch {bid} returned cells "
                        f"{sorted(bodies)} instead of {sorted(by_key)}"
                    )
                for key, (_h12, digest) in by_key.items():
                    text = bodies[key]
                    if _text_digest(text) != digest:
                        raise ProtocolError(
                            f"cell {key!r}: fetched body does not match "
                            f"the acked content digest"
                        )
                    values = _cell_values_from_text(text, digest, key)
                    done.append(CompletedCell(key, values, fetched=True))
                self._emit_batch(scheduler, bid, done, out, out_cond)

    @staticmethod
    def _emit_batch(scheduler: _BatchScheduler, bid: int,
                    cells: List[CompletedCell], out: List[Any],
                    out_cond: threading.Condition) -> None:
        """Complete a fully reconciled batch and hand its cells over."""
        scheduler.complete(bid)
        with out_cond:
            out.append(cells)
            out_cond.notify()

    def _feed_worker(
        self,
        label: str,
        address: Tuple[str, int],
        plan: ExecutionPlan,
        scheduler: _BatchScheduler,
        out: List[Any],
        out_cond: threading.Condition,
        dead: Dict[str, str],
        wire: WireStats,
    ) -> None:
        sock: Optional[socket.socket] = None
        try:
            sock, ready = self._handshake(label, address, plan, wire)
            self._feed_worker_digest(
                label, sock, ready, plan, scheduler, out, out_cond, wire)
            try:
                send_msg(sock, {"type": "bye"}, wire=wire)
            except OSError:
                pass
        except (DistributedError, ConnectionError, OSError) as exc:
            dead[label] = str(exc)
            scheduler.abandon(label)
            with out_cond:
                out_cond.notify()
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            with out_cond:
                out_cond.notify()

    # -- coordinator --------------------------------------------------

    def execute(self, plan: ExecutionPlan) -> Iterator[CompletedCell]:
        """Fan the plan's cells over the workers, yielding as they land.

        One feed thread per worker; the finished cells are yielded on
        the caller's thread (so store writes stay on the coordinator),
        in completion order — the runner's merge is order-independent.
        Raises :class:`DistributedError` when every worker is dead with
        batches still unfinished.
        """
        batches = self._cell_batches(plan)
        plan.stats.record_batches(len(batches))
        wire = WireStats()
        scheduler = _BatchScheduler(batches)
        out: List[List[Any]] = []
        out_cond = threading.Condition()
        dead: Dict[str, str] = {}
        threads: List[threading.Thread] = []
        for idx, address in enumerate(self.addresses):
            label = f"{address[0]}:{address[1]}#{idx}"
            thread = threading.Thread(
                target=self._feed_worker,
                args=(label, address, plan, scheduler, out, out_cond, dead,
                      wire),
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
                    feeds, out[:] = list(out), []
                for values in feeds:
                    yield from values
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
            # drain feeds that landed between the last wait and thread exit
            with out_cond:
                feeds, out[:] = list(out), []
            for values in feeds:
                yield from values
        finally:
            scheduler.fail(DistributedError("coordinator shut down"))
            for thread in threads:
                thread.join(timeout=2.0)
            plan.stats.record_wire(wire.bytes_in, wire.bytes_out)


def _cell_values_from_text(text: str, digest: str, key: str) -> Any:
    """Parse a digest-verified cell file's text into its values."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ProtocolError(
            f"cell {key!r}: digest-verified body is not JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "values" not in payload:
        raise ProtocolError(f"cell {key!r}: body has no 'values' field")
    return payload["values"]


# ---------------------------------------------------------------------------
# Worker server
# ---------------------------------------------------------------------------


def _rebuild_cell(hello: Dict[str, Any], trial_fn: Any, reduce_fn: Any,
                  cell: Dict[str, Any]
                  ) -> Tuple["spec_mod.ExperimentSpec", "spec_mod.Trial"]:
    """Reconstruct a one-cell spec from the hello + a dispatched cell.

    ``cell_hash`` covers the spec identity plus *that cell's* key,
    params and seeds — never its siblings — so a single-cell spec built
    from the same trial/reduce source yields the same hash, fingerprint
    and therefore the same cell-file bytes as the coordinator's full
    spec.  That equality is what the echoed ``h`` verifies.
    """
    trial = spec_mod.Trial(
        key=str(cell["key"]),
        params=dict(cell["params"]),
        seeds=tuple(int(s) for s in cell["seeds"]),
    )
    spec = spec_mod.ExperimentSpec(
        name=str(hello["spec"]),
        trial=trial_fn,
        trials=(trial,),
        version=str(hello.get("spec_version", "2")),
        reduce=reduce_fn,
    )
    return spec, trial


def _worker_run_cell(spec: "spec_mod.ExperimentSpec", trial: "spec_mod.Trial",
                     shadow: ResultStore) -> Tuple[Any, int]:
    """Run (or recall) one cell and persist it into the shadow store.

    Returns ``(cell_path, units_executed)`` — zero units when the shadow
    store already held the cell (a re-dispatch after a crash, or a
    repeated campaign): content addressing makes re-execution and recall
    indistinguishable byte-wise.
    """
    cached = shadow.load_cell(spec, trial)
    if cached is not None:
        return shadow.cell_path(spec, trial), 0
    units = [(i, seed, dict(trial.params))
             for i, seed in enumerate(trial.seeds)]
    raw = run_unit_batch(spec.trial, units)  # in unit order
    values = finish_cell(spec, [value for _index, value in raw])
    return shadow.save_cell(spec, trial, values), len(units)


def _serve_digest_batch(conn: socket.socket, message: Dict[str, Any],
                        hello: Dict[str, Any], trial_fn: Any, reduce_fn: Any,
                        shadow: ResultStore,
                        persist_budget: List[Optional[int]]) -> None:
    """Execute one cells batch and reply with an RXD1 digest frame."""
    bid = message["id"]
    acks: List[List[Any]] = []
    batch_event_counts()  # scope the counters to this batch
    for cell in message["cells"]:
        spec, trial = _rebuild_cell(hello, trial_fn, reduce_fn, cell)
        expected = str(cell.get("h", ""))
        actual = spec_mod.cell_hash(spec, trial)[:12]
        if expected and expected != actual:
            send_msg(conn, {
                "type": "error", "id": bid,
                "message": (
                    f"cell {trial.key!r}: coordinator expects hash "
                    f"{expected}, worker computes {actual} — trial source "
                    f"skew between hosts"
                ),
            })
            return
        try:
            path, executed = _worker_run_cell(spec, trial, shadow)
        except Exception as exc:  # noqa: BLE001 - shipped to coordinator
            send_msg(conn, {"type": "error", "id": bid,
                            "message": f"{type(exc).__name__}: {exc}"})
            return
        if executed and persist_budget[0] is not None:
            persist_budget[0] -= 1
            if persist_budget[0] <= 0:
                # crash-test hook: the cell IS persisted in the shadow
                # store, but the digest ack never leaves — the exact
                # window the redispatch-no-duplication test exercises
                conn.close()
                os._exit(0)
        acks.append([trial.key, actual, file_digest(path), executed])
    send_msg(conn, {"type": "digest", "id": bid, "cells": acks,
                    "ev": batch_event_counts()}, magic=DIGEST_MAGIC)


def _serve_fetch(conn: socket.socket, message: Dict[str, Any],
                 hello: Dict[str, Any], shadow: ResultStore) -> None:
    """Reply to a fetch with the exact shadow-store file texts."""
    bid = message["id"]
    spec_dir = shadow.root / str(hello["spec"])
    bodies: List[List[str]] = []
    for key, h12 in message["cells"]:
        path = spec_dir / f"{spec_mod.cell_slug(str(key))}-{h12}.json"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            send_msg(conn, {
                "type": "error", "id": bid,
                "message": f"cell {key!r} missing from shadow store: {exc}",
            })
            return
        bodies.append([key, h12, text])
    send_msg(conn, {"type": "body", "id": bid, "cells": bodies})


def _resolve_hello(hello: Dict[str, Any]) -> Tuple[Any, Any]:
    """Check a hello and resolve its ``(trial, reduce)`` functions.

    Raises :class:`ProtocolError` saying why this worker cannot honour
    it — the reason travels back to the coordinator in an ``error``
    frame, so a version skew or an unimportable trial is reported by
    name instead of as a closed socket.
    """
    if hello.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
    if hello.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: coordinator speaks "
            f"{hello.get('version')}, worker speaks {PROTOCOL_VERSION}"
        )
    trial_ref, reduce_ref = hello.get("trial"), hello.get("reduce")
    try:
        return (resolve_function_ref(trial_ref),
                resolve_function_ref(reduce_ref) if reduce_ref else None)
    except Exception as exc:  # noqa: BLE001 - whatever an import raises
        raise ProtocolError(
            f"cannot resolve trial {trial_ref!r} / reduce {reduce_ref!r} "
            f"on this worker: {type(exc).__name__}: {exc}"
        ) from exc


def _serve_connection(conn: socket.socket, batch_budget: List[Optional[int]],
                      shadow: ResultStore,
                      persist_budget: List[Optional[int]]) -> None:
    """Drive one coordinator conversation on an accepted connection."""
    hello = recv_msg(conn)
    try:
        trial_fn, reduce_fn = _resolve_hello(hello)
    except ProtocolError as exc:
        send_msg(conn, {"type": "error", "message": str(exc)})
        raise
    send_msg(conn, {"type": "ready",
                    "host": socket.gethostname(), "pid": os.getpid(),
                    "shadow": str(shadow.root.resolve())})
    while True:
        message = recv_msg(conn)
        kind = message.get("type")
        if kind == "bye":
            return
        if kind == "fetch":
            _serve_fetch(conn, message, hello, shadow)
            continue
        if kind != "cells":
            raise ProtocolError(f"expected cells, fetch or bye, got {kind!r}")
        _serve_digest_batch(conn, message, hello, trial_fn, reduce_fn,
                            shadow, persist_budget)
        if batch_budget[0] is not None:
            batch_budget[0] -= 1
            if batch_budget[0] <= 0:
                # crash-test hook: hard exit *after* replying, so the
                # coordinator has this batch but loses the connection
                conn.close()
                os._exit(0)


def serve(host: str, port: int, max_batches: Optional[int] = None,
          shadow: Optional[str] = None,
          crash_after_persist: Optional[int] = None) -> None:
    """Run a ``repro worker``: accept coordinators until interrupted.

    One coordinator at a time (the protocol is strictly request/reply
    per connection); each cell runs through the shared
    :func:`~repro.exp.runner.run_unit_batch` body, is persisted into
    the worker's **shadow store** (``shadow``, default
    ``.repro-shadow/`` under the worker's working directory) and
    acknowledged by content digest only.

    ``max_batches`` hard-exits the process after N completed batches,
    and ``crash_after_persist`` hard-exits after the Nth freshly
    executed cell is shadow-persisted but *before* its digest ack — the
    two deterministic worker-crash hooks the failover tests use.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(4)
    bound = server.getsockname()
    # the readiness line scripts wait for before launching the campaign
    print(f"repro worker listening on {bound[0]}:{bound[1]}", flush=True)
    shadow_store = ResultStore(shadow if shadow else DEFAULT_SHADOW_ROOT)
    budget: List[Optional[int]] = [max_batches]
    persist_budget: List[Optional[int]] = [crash_after_persist]
    try:
        while True:
            conn, _addr = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                _serve_connection(conn, budget, shadow_store, persist_budget)
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


def free_port() -> int:
    """An OS-assigned free TCP port (test helper)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()
