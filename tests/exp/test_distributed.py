"""Remote backend: wire protocol, failover, and byte-identity.

The worker-crash test is the PR's robustness bar: a worker that dies
after returning some batches must have its orphaned batches rebatched
deterministically onto the survivors, and the final store bytes must
equal a serial run's — nothing lost, nothing doubled.
"""

import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import exp
from repro.exp import distributed
from repro.exp import spec as spec_mod


def free_port():
    """A TCP port the OS just assigned and released: connects are refused."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _dump(result):
    return json.dumps(result.results, sort_keys=True)


def _store_bytes(root):
    digests = {}
    for path in sorted(root.rglob("*.json")):
        if path.name == "manifest.json":
            continue
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def echo_trial(seed, params):
    return {"seed": seed, "cell": params["cell"]}


def _echo_spec(cells=6, runs=2, name="echo-remote", trial=echo_trial):
    trials = tuple(
        exp.Trial(key=f"c{i}", params={"cell": i},
                  seeds=tuple(range(runs * i, runs * i + runs)))
        for i in range(cells)
    )
    return exp.ExperimentSpec(name=name, trial=trial, trials=trials)


# -- framing ----------------------------------------------------------------


def _socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    peer, _ = server.accept()
    server.close()
    return client, peer


def test_frame_roundtrip_preserves_message():
    client, peer = _socket_pair()
    try:
        message = {"type": "units", "id": 3,
                   "units": [[0, 123, {"cell": 0}], [1, 124, {"cell": 0}]]}
        distributed.send_msg(client, message)
        assert distributed.recv_msg(peer) == message
        # the retired digest magic is still read
        distributed.send_msg(client, message, magic=distributed.DIGEST_MAGIC)
        assert distributed.recv_msg(peer) == message
    finally:
        client.close()
        peer.close()


def test_corrupted_payload_is_rejected_by_checksum():
    client, peer = _socket_pair()
    try:
        payload = json.dumps({"type": "ready"}).encode()
        digest = distributed._checksum(payload)
        corrupted = bytearray(payload)
        corrupted[0] ^= 0xFF
        client.sendall(distributed.MAGIC + len(payload).to_bytes(4, "big")
                       + digest + bytes(corrupted))
        with pytest.raises(distributed.ProtocolError, match="checksum"):
            distributed.recv_msg(peer)
    finally:
        client.close()
        peer.close()


def test_bad_magic_is_rejected():
    client, peer = _socket_pair()
    try:
        client.sendall(b"NOPE" + bytes(12))
        with pytest.raises(distributed.ProtocolError, match="magic"):
            distributed.recv_msg(peer)
    finally:
        client.close()
        peer.close()


def test_half_closed_peer_raises_connection_error():
    client, peer = _socket_pair()
    try:
        client.sendall(distributed.MAGIC)  # partial header, then gone
        client.close()
        with pytest.raises(ConnectionError):
            distributed.recv_msg(peer)
    finally:
        peer.close()


def test_parse_address():
    assert distributed.parse_address("10.0.0.2:9001") == ("10.0.0.2", 9001)
    with pytest.raises(exp.DistributedError):
        distributed.parse_address("no-port")
    with pytest.raises(exp.DistributedError):
        distributed.parse_address("host:notaport")
    with pytest.raises(exp.DistributedError):
        distributed.parse_address("host:99999")
    # port 0 means OS-assigned: a worker may listen there, nobody can dial it
    assert distributed.parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
    with pytest.raises(exp.DistributedError, match="port 0"):
        distributed.RemoteBackend(["127.0.0.1:7401", "127.0.0.1:0"])


def test_connect_backs_off_only_between_attempts(monkeypatch):
    sleeps = []
    monkeypatch.setattr(distributed.time, "sleep", sleeps.append)
    refused = ("127.0.0.1", free_port())
    with pytest.raises(exp.DistributedError, match="after 5 attempts"):
        distributed._connect(refused, timeout=0.5)
    assert sleeps == [0.2, 0.4, 0.8, 1.6]


# -- batch scheduler --------------------------------------------------------


def test_scheduler_rebatches_orphans_in_dispatch_order():
    scheduler = distributed._BatchScheduler([["b0"], ["b1"], ["b2"], ["b3"]])
    assert scheduler.acquire("w1") == (0, ["b0"])
    assert scheduler.acquire("w2") == (1, ["b1"])
    assert scheduler.acquire("w1") is not None  # bid 2
    scheduler.complete(2)
    # w1 dies holding bid 0; its orphan must come back before bid 3
    assert scheduler.abandon("w1") == [0]
    assert scheduler.acquire("w2") == (0, ["b0"])
    scheduler.complete(0)
    scheduler.complete(1)
    assert scheduler.acquire("w2") == (3, ["b3"])
    scheduler.complete(3)
    assert scheduler.acquire("w2") is None
    assert scheduler.unfinished() == 0


def test_scheduler_acquire_nowait_never_blocks():
    scheduler = distributed._BatchScheduler([["b0"], ["b1"]])
    assert scheduler.acquire_nowait("w1") == (0, ["b0"])
    assert scheduler.acquire_nowait("w1") == (1, ["b1"])
    # nothing pending (both outstanding on w1): returns None immediately
    # instead of blocking for an abandon that may never come
    assert scheduler.acquire_nowait("w2") is None
    scheduler.complete(0)
    scheduler.complete(1)
    assert scheduler.acquire_nowait("w1") is None
    assert scheduler.unfinished() == 0


def test_scheduler_fail_wakes_blocked_acquirers():
    scheduler = distributed._BatchScheduler([["b0"]])
    assert scheduler.acquire("w1") == (0, ["b0"])
    results = []

    def blocked():
        results.append(scheduler.acquire("w2"))

    thread = threading.Thread(target=blocked)
    thread.start()
    time.sleep(0.05)
    scheduler.fail(exp.DistributedError("boom"))
    thread.join(timeout=5)
    assert results == [None]
    assert isinstance(scheduler.failure, exp.DistributedError)


# -- live workers (subprocesses, as in production) --------------------------


def _start_worker(*extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", *extra],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (\S+)", line)
    assert match, f"worker did not announce its address: {line!r}"
    return process, match.group(1)


def _stop_worker(process):
    if process.poll() is None:
        process.terminate()
    process.wait(timeout=10)


@pytest.fixture
def two_workers():
    workers = [_start_worker() for _ in range(2)]
    yield [address for _proc, address in workers]
    for process, _address in workers:
        _stop_worker(process)


def test_remote_campaign_matches_serial_including_store(tmp_path,
                                                        two_workers):
    from repro.eval import campaign

    spec = campaign.sharded_spec(missions=8, base_seed=5000, requests=8,
                                 cell_size=4)
    serial_store = exp.ResultStore(tmp_path / "serial")
    remote_store = exp.ResultStore(tmp_path / "remote")
    serial = exp.run(spec, jobs=1, backend="serial", store=serial_store)
    remote = exp.run(spec, batch=1, workers=two_workers, store=remote_store)
    assert _dump(serial) == _dump(remote)
    assert remote.backend == "remote"
    serial_bytes = _store_bytes(tmp_path / "serial")
    assert serial_bytes == _store_bytes(tmp_path / "remote")
    assert serial_bytes
    assert remote.wire_bytes_in > 0 and remote.wire_bytes_out > 0
    # event attribution crosses the wire in the batch-complete frames
    assert remote.events_by_source == serial.events_by_source
    assert remote.beats_replayed == serial.beats_replayed > 0


def padded_trial(seed, params):
    return {"seed": seed, "cell": params["cell"], "pad": "x" * 1000}


def test_each_unit_value_crosses_the_wire_once(two_workers):
    """The coordinator receives each unit's ``[index, value]`` once plus
    a fixed framing allowance per batch; a second copy of any value
    would overrun it."""
    spec = _echo_spec(cells=6, runs=2, name="echo-exact", trial=padded_trial)
    serial = exp.run(spec, jobs=1, backend="serial")
    values = [value for cell in serial.results.values() for value in cell]
    # one [index, value] per unit, each followed by at most ", "
    unit_bytes = sum(len(json.dumps([index, value])) + 2
                     for index, value in enumerate(values))
    batches = len(values) // 2
    ready = distributed.HEADER_BYTES + len(json.dumps({"type": "ready"}))
    framing = distributed.HEADER_BYTES + 96  # type, id, "ev" counts
    remote = exp.run(spec, batch=2, workers=two_workers)
    assert _dump(remote) == _dump(serial)
    assert unit_bytes < remote.wire_bytes_in
    budget = unit_bytes + batches * framing + len(two_workers) * ready
    assert remote.wire_bytes_in <= budget, (remote.wire_bytes_in, budget)
    # the slack is smaller than any one value: none can cross twice
    assert budget - unit_bytes < min(len(json.dumps(v)) for v in values)


def slow_echo_trial(seed, params):
    # slow enough that one worker cannot drain the whole campaign before
    # the other's feed thread gets scheduled — the failover test needs
    # the mortal worker to actually receive (and serve) its one batch
    time.sleep(0.05)
    return {"seed": seed, "cell": params["cell"]}


def test_worker_crash_mid_campaign_rebatches_onto_survivor(tmp_path):
    """Kill one worker after it returned some batches: the orphaned units
    must land on the survivor and the store must match serial exactly."""
    mortal, mortal_address = _start_worker("--max-batches", "1")
    # --shadow is accepted and ignored: a worker keeps no store
    ignored = tmp_path / "shadow"
    survivor, survivor_address = _start_worker("--shadow", str(ignored))
    try:
        spec = _echo_spec(cells=8, runs=2, name="echo-failover",
                          trial=slow_echo_trial)
        serial_store = exp.ResultStore(tmp_path / "serial")
        remote_store = exp.ResultStore(tmp_path / "remote")
        serial = exp.run(spec, jobs=1, backend="serial", store=serial_store)
        backend = distributed.RemoteBackend(
            [mortal_address, survivor_address], batch_timeout=30.0
        )
        remote = exp.run(spec, batch=1, backend=backend, store=remote_store)
        assert _dump(serial) == _dump(remote)
        assert _store_bytes(tmp_path / "serial") == _store_bytes(
            tmp_path / "remote"
        )
        # the mortal worker really did serve its one batch, then died
        assert mortal.wait(timeout=10) == 0
        assert remote.executed == spec.unit_count
        assert not ignored.exists()
    finally:
        for process in (mortal, survivor):
            _stop_worker(process)


def test_a_reply_naming_other_units_is_a_protocol_error():
    """A results frame must name exactly the units dispatched in its
    batch: a worker that answers with other indices is dropped, and
    none of its values reach the assembler."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def shifted_worker():
        conn, _addr = server.accept()
        with conn:
            distributed.recv_msg(conn)  # hello
            distributed.send_msg(conn, {"type": "ready"})
            batch = distributed.recv_msg(conn)
            distributed.send_msg(conn, {
                "type": "results", "id": batch["id"], "ev": [],
                "results": [[index + 1, {}] for index, _s, _p in batch["units"]],
            })

    thread = threading.Thread(target=shifted_worker, daemon=True)
    thread.start()
    address = f"127.0.0.1:{server.getsockname()[1]}"
    try:
        with pytest.raises(exp.DistributedError,
                           match="not the results of batch 0"):
            exp.run(_echo_spec(cells=2, runs=1, name="echo-shifted"),
                    batch=2, workers=[address])
    finally:
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()


def test_all_workers_dead_raises_distributed_error():
    # ports that were bound and closed: connections will be refused
    dead = [f"127.0.0.1:{free_port()}" for _ in range(2)]
    backend = distributed.RemoteBackend(dead, connect_timeout=0.5)
    with pytest.raises(exp.DistributedError, match="worker"):
        exp.run(_echo_spec(cells=4, name="echo-dead"), batch=1,
                backend=backend)


def test_trial_error_on_worker_aborts_the_run(two_workers):
    spec = exp.ExperimentSpec(
        name="echo-error", trial=raising_trial,
        trials=(exp.Trial(key="c0", params={}, seeds=(1, 2)),),
    )
    with pytest.raises(exp.DistributedError, match="RuntimeError"):
        exp.run(spec, batch=1, workers=two_workers)


def raising_trial(seed, params):
    raise RuntimeError(f"boom at seed {seed}")


def set_trial(seed, params):
    return {"seed": seed, "tags": {"a", "b"}}


def test_non_json_trial_value_on_a_worker_aborts_the_run(two_workers):
    """The cause ``serial`` raises as ``ResultTypeError`` comes back as a
    ``DistributedError`` naming it, and the workers live on."""
    spec = exp.ExperimentSpec(
        name="echo-set", trial=set_trial,
        trials=(exp.Trial(key="c0", params={}, seeds=(1, 2)),),
    )
    with pytest.raises(exp.ResultTypeError, match="not JSON-serialisable"):
        exp.run(spec, jobs=1, backend="serial")
    with pytest.raises(exp.DistributedError, match="not JSON-serialisable"):
        exp.run(spec, batch=1, workers=two_workers)
    after = _echo_spec(cells=3, name="echo-after-set")
    assert _dump(exp.run(after, batch=1, workers=two_workers)) == _dump(
        exp.run(after, jobs=1, backend="serial"))


def test_version_skewed_hello_is_refused_with_an_error_frame(two_workers):
    host, port = distributed.parse_address(two_workers[0])
    with socket.create_connection((host, port), timeout=10) as sock:
        distributed.send_msg(sock, {
            "type": "hello", "version": 2,
            "trial": f"{__name__}:echo_trial", "code": "",
        })
        reply = distributed.recv_msg(sock)
    assert reply["type"] == "error"
    assert "version" in reply["message"]
    assert str(distributed.PROTOCOL_VERSION) in reply["message"]


def test_a_worker_running_other_code_refuses_the_hello_naming_both_digests(
        two_workers):
    host, port = distributed.parse_address(two_workers[0])
    with socket.create_connection((host, port), timeout=10) as sock:
        distributed.send_msg(sock, {
            "type": "hello", "version": distributed.PROTOCOL_VERSION,
            "trial": f"{__name__}:echo_trial", "code": "0" * 64,
        })
        reply = distributed.recv_msg(sock)
    assert reply["type"] == "error"
    assert "code digest skew" in reply["message"]
    assert "0" * 64 in reply["message"]
    assert spec_mod.code_digest(echo_trial) in reply["message"]


def ghost_trial(seed, params):
    return {"seed": seed}


# a module-level function whose import reference no worker can resolve
ghost_trial.__module__ = "repro_tests_no_such_module"


def test_unresolvable_trial_ref_is_reported_by_name(two_workers):
    spec = exp.ExperimentSpec(
        name="echo-unimportable", trial=ghost_trial,
        trials=(exp.Trial(key="c0", params={}, seeds=(1,)),),
    )
    with pytest.raises(exp.DistributedError,
                       match="repro_tests_no_such_module:ghost_trial"):
        exp.run(spec, batch=1, workers=two_workers)
