"""Tests for the application/assertion registry and the built-in servers."""

import pytest

from repro.app import (
    application_info,
    get_assertion,
    register_application,
    register_assertion,
)
from repro.patterns import CounterServer, KeyValueServer, NonDeterministicServer


def test_builtin_catalog_present():
    counter = application_info("counter")
    assert counter.deterministic
    assert counter.state_accessible
    assert application_info("kv-store").name == "kv-store"
    assert not application_info("sensor-fusion").deterministic


def test_unknown_application_rejected():
    with pytest.raises(KeyError, match="unknown application"):
        application_info("nope")


def test_unknown_assertion_rejected():
    with pytest.raises(KeyError, match="unknown assertion"):
        get_assertion("nope")


def test_double_registration_rejected():
    with pytest.raises(ValueError):
        register_application("counter", CounterServer, True, True)
    with pytest.raises(ValueError):
        register_assertion("counter-range", lambda p, r: True)


def test_create_application_fresh_instances():
    a = application_info("counter").factory()
    b = application_info("counter").factory()
    assert a is not b
    a.process(("add", 1))
    assert b.total == 0


def test_builtin_assertions_behave():
    in_range = get_assertion("counter-range")
    assert in_range(None, 5)
    assert not in_range(None, -1)
    assert not in_range(None, "text")
    assert get_assertion("result-not-none")(None, 0)
    assert not get_assertion("result-not-none")(None, None)
    assert get_assertion("always-true")(None, None)


# -- concrete servers ------------------------------------------------------------


def test_kv_server_operations():
    kv = KeyValueServer()
    assert kv.process(("put", "k", 1)) == "ok"
    assert kv.process(("get", "k")) == 1
    assert kv.process(("delete", "k")) == 1
    assert kv.process(("get", "k")) is None
    with pytest.raises(ValueError):
        kv.process(("drop-table",))


def test_kv_server_state_roundtrip_is_deep():
    kv = KeyValueServer()
    kv.process(("put", "k", [1, 2]))
    snapshot = kv.capture_state()
    kv.process(("put", "k", [9]))
    kv.restore_state(snapshot)
    assert kv.process(("get", "k")) == [1, 2]
    # the snapshot is isolated from later mutation
    snapshot["k"].append(99)
    assert kv.process(("get", "k")) == [1, 2]


def test_counter_server_rejects_unknown_payload():
    with pytest.raises(ValueError):
        CounterServer().process("gibberish")


def test_non_deterministic_server_diverges_across_instances():
    a = NonDeterministicServer(seed=1)
    b = NonDeterministicServer(seed=2)
    assert a.process("x") != b.process("x")
