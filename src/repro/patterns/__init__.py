"""The fault-tolerance design-pattern system (paper Sec. 4, Figure 3).

Two design loops produce the hierarchy::

    FaultToleranceProtocol          (loop 2: common to ALL FTMs)
      ├── DuplexProtocol            (loop 1: common to duplex FTMs)
      │     ├── PBR                 (passive replication)
      │     └── LFR                 (active replication)
      ├── TimeRedundancy            (transient value faults, 1 host)
      └── Assertion                 (safety assertion + re-execution)

    compositions (⊕):  PBR_TR, LFR_TR, PBR_A, LFR_A

Each class carries its Table 1 characteristics and Table 2 execution
scheme as metadata, read by the evaluation harness.
"""

from repro.patterns.assertion import Assertion, SafetyAssertion
from repro.patterns.base import FaultToleranceProtocol
from repro.patterns.composed import LFR_A, LFR_TR, PBR_A, PBR_TR
from repro.patterns.duplex import DuplexProtocol, LocalLink, Role
from repro.patterns.errors import (
    AssertionFailedError,
    NoPeerError,
    NotMasterError,
    PatternError,
    UnmaskedFaultError,
)
from repro.patterns.lfr import LFR
from repro.patterns.messages import PeerMessage, Reply, Request
from repro.patterns.pbr import PBR
from repro.patterns.server import (
    CounterServer,
    KeyValueServer,
    NonDeterministicServer,
    RecoverableRemoteServer,
    Remote,
    RemoteServer,
    Server,
    StateManager,
)
from repro.patterns.time_redundancy import TimeRedundancy

#: Every deployable FTM of the illustrative set (Figure 2 / Table 3).
ILLUSTRATIVE_SET = (PBR, LFR, PBR_TR, LFR_TR, PBR_A, LFR_A)

#: The base (non-composed) patterns of Figure 3.
BASE_PATTERNS = (PBR, LFR, TimeRedundancy, Assertion)

__all__ = [
    "Assertion",
    "SafetyAssertion",
    "FaultToleranceProtocol",
    "LFR_A",
    "LFR_TR",
    "PBR_A",
    "PBR_TR",
    "DuplexProtocol",
    "LocalLink",
    "Role",
    "AssertionFailedError",
    "NoPeerError",
    "NotMasterError",
    "PatternError",
    "UnmaskedFaultError",
    "LFR",
    "PeerMessage",
    "Reply",
    "Request",
    "PBR",
    "CounterServer",
    "KeyValueServer",
    "NonDeterministicServer",
    "RecoverableRemoteServer",
    "Remote",
    "RemoteServer",
    "Server",
    "StateManager",
    "TimeRedundancy",
    "ILLUSTRATIVE_SET",
    "BASE_PATTERNS",
]
