"""Tests for TimeRedundancy, Assertion, and the composed FTMs."""

from typing import Any, Optional

import pytest

from repro.patterns import (
    LFR_A,
    LFR_TR,
    PBR_A,
    PBR_TR,
    Assertion,
    AssertionFailedError,
    CounterServer,
    LocalLink,
    NonDeterministicServer,
    PatternError,
    RecoverableRemoteServer,
    Request,
    Role,
    TimeRedundancy,
    UnmaskedFaultError,
)


class FlakyServer(RecoverableRemoteServer):
    """A wrapper that corrupts results on demand (fault injection hook).

    ``fail_next(n)`` corrupts the next *n* computations, so TR and
    Assertion masking are exercised without the full kernel.
    """

    def __init__(self, inner: Optional[RecoverableRemoteServer] = None) -> None:
        self.inner = inner or CounterServer()
        self._failures_left = 0
        self.faults_injected = 0

    def fail_next(self, count: int = 1) -> None:
        """Corrupt the next ``count`` computations."""
        self._failures_left = count

    def process(self, payload: Any) -> Any:
        result = self.inner.process(payload)
        if self._failures_left > 0:
            self._failures_left -= 1
            self.faults_injected += 1
            if isinstance(result, int):
                return result ^ 0x40
            return ("corrupted", result)
        return result

    def capture_state(self) -> Any:
        return self.inner.capture_state()

    def restore_state(self, snapshot: Any) -> None:
        self.inner.restore_state(snapshot)


def request(request_id, payload=("add", 1), client="c1"):
    return Request(request_id=request_id, client=client, payload=payload)


def counter_in_range(_request, result):
    """Safety assertion: the counter stays in a sane envelope."""
    return isinstance(result, int) and 0 <= result < 1000


# -- Time Redundancy -----------------------------------------------------------


def test_tr_clean_run_computes_twice():
    server = FlakyServer()
    protocol = TimeRedundancy(server)
    reply = protocol.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert protocol.executions == 2
    assert protocol.masked_faults == 0
    assert server.inner.total == 5  # state effects applied exactly once


def test_tr_masks_single_transient_fault():
    server = FlakyServer()
    protocol = TimeRedundancy(server)
    server.fail_next(1)  # corrupt exactly the first execution
    reply = protocol.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert protocol.executions == 3
    assert protocol.masked_faults == 1
    assert server.inner.total == 5


def test_tr_unmasked_when_all_executions_differ():
    class AlwaysDifferent(CounterServer):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def process(self, payload):
            self.calls += 1
            return self.calls * 1000  # never agrees

    protocol = TimeRedundancy(AlwaysDifferent())
    with pytest.raises(UnmaskedFaultError):
        protocol.handle_request(request(1, ("add", 1)))


def test_tr_requires_state_manager():
    with pytest.raises(PatternError, match="state access"):
        TimeRedundancy(NonDeterministicServer())


def test_tr_state_restored_between_executions():
    server = FlakyServer()
    protocol = TimeRedundancy(server)
    protocol.handle_request(request(1, ("add", 3)))
    protocol.handle_request(request(2, ("add", 4)))
    # without restore-between-executions the total would be 14, not 7
    assert server.inner.total == 7


# -- Assertion (standalone) -----------------------------------------------------------


def test_assertion_passes_good_results_through():
    protocol = Assertion(FlakyServer(), assertion=counter_in_range)
    reply = protocol.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert protocol.assertion_failures == 0


def test_assertion_requires_predicate():
    with pytest.raises(PatternError, match="safety"):
        Assertion(FlakyServer())


def test_assertion_recovers_locally_from_transient():
    server = FlakyServer()
    protocol = Assertion(server, assertion=counter_in_range)
    server.fail_next(1)  # 5 ^ 0x40 = 69 -> still in range! use a tighter assertion

    def tight(_request, result):
        return result == server.inner.total  # result must match true state

    protocol.assertion = tight
    server.fail_next(1)
    reply = protocol.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert protocol.assertion_failures == 1
    assert protocol.recoveries == 1


def test_assertion_gives_up_on_persistent_violation():
    server = FlakyServer()
    protocol = Assertion(server, assertion=lambda _r, _v: False)
    with pytest.raises(AssertionFailedError):
        protocol.handle_request(request(1, ("add", 5)))


# -- compositions ---------------------------------------------------------------------


def composed_pair(cls, **kwargs):
    master = cls(FlakyServer(), role=Role.MASTER, name="master", **kwargs)
    slave = cls(FlakyServer(), role=Role.SLAVE, name="slave", **kwargs)
    link = LocalLink(master, slave)
    return master, slave, link


def test_pbr_tr_masks_transient_and_checkpoints():
    master, slave, _link = composed_pair(PBR_TR)
    master.server.fail_next(1)
    reply = master.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert master.masked_faults == 1
    assert slave.server.capture_state()["total"] == 5  # checkpoint applied


def test_pbr_tr_crash_failover_still_works():
    master, slave, link = composed_pair(PBR_TR)
    master.handle_request(request(1, ("add", 5)))
    link.break_()
    slave.peer_failed()
    reply = slave.handle_request(request(2, ("add", 5)))
    assert reply.value == 10


def test_lfr_tr_follower_also_masks():
    master, slave, _link = composed_pair(LFR_TR)
    slave.server.fail_next(1)  # transient fault on the follower
    master.handle_request(request(1, ("add", 5)))
    assert slave.masked_faults == 1
    assert slave.reply_log[("c1", 1)].value == 5


def test_pbr_a_remote_reexecution_on_permanent_fault():
    master, slave, _link = composed_pair(PBR_A, assertion=counter_in_range)

    # permanent fault on the master: every computation corrupted out of range
    class Poisoned(FlakyServer):
        def process(self, payload):
            return 10_000  # always violates counter_in_range

    master.server = Poisoned()
    reply = master.handle_request(request(1, ("add", 5)))
    assert reply.value == 5  # result came from the backup's re-execution
    assert master.assertion_failures == 1
    assert master.recoveries == 1
    # master adopted the backup's state
    assert master.server.capture_state()["total"] == 5


def test_lfr_a_adopts_follower_result():
    master, slave, _link = composed_pair(LFR_A, assertion=counter_in_range)

    class Poisoned(FlakyServer):
        def process(self, payload):
            return 10_000

    master.server = Poisoned()
    reply = master.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    # follower computed once (on the forward), not twice
    assert slave.server.inner.processed == 1


def test_a_duplex_unrecoverable_when_both_sides_bad():
    master, slave, _link = composed_pair(PBR_A, assertion=lambda _r, _v: False)
    with pytest.raises(AssertionFailedError):
        master.handle_request(request(1, ("add", 5)))


def test_a_duplex_master_alone_falls_back_locally():
    master, _slave, link = composed_pair(PBR_A, assertion=counter_in_range)
    link.break_()
    master.peer_failed()

    flaky = master.server

    def tight(_request, result):
        return result == flaky.inner.total

    master.assertion = tight
    flaky.fail_next(1)
    reply = master.handle_request(request(1, ("add", 5)))
    assert reply.value == 5
    assert master.recoveries == 1


def test_composed_metadata_covers_union_of_fault_models():
    assert PBR_TR.FAULT_MODELS == frozenset({"crash", "transient_value"})
    assert PBR_A.FAULT_MODELS == frozenset(
        {"crash", "transient_value", "permanent_value"}
    )
    assert LFR_A.REQUIRES_STATE_ACCESS is False
    assert LFR_TR.REQUIRES_STATE_ACCESS is True


def test_mro_is_the_documented_composition_order():
    # TimeRedundancy specialises the scheme *around* PBR
    mro_names = [cls.__name__ for cls in PBR_TR.__mro__]
    assert mro_names.index("TimeRedundancy") < mro_names.index("PBR")
    assert mro_names.index("PBR") < mro_names.index("DuplexProtocol")
