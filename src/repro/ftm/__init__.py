"""Component-based FTMs on the simulated platform (paper Sec. 4.4–5).

Public surface::

    from repro.ftm import FTMPair, Client, ftm_assembly, FTM_NAMES

    pair = yield from deploy_ftm_pair(world, "pbr", ["alpha", "beta"])
    client = Client(world, client_node, "c1", pair.node_names())
    reply = yield from client.request(("add", 5))
"""

from repro.ftm.catalog import (
    FTM_NAMES,
    PATTERN_CLASSES,
    VARIABLE_FEATURES,
    check_ftm_name,
    ftm_assembly,
    variable_feature_distance,
)
from repro.ftm.client import Client
from repro.ftm.errors import (
    FTMError,
    UnknownFTM,
    UnmaskedFault,
)
from repro.ftm.factory import FTMPair, deploy_ftm_pair
from repro.ftm.failure_detector import HeartbeatFailureDetector
from repro.ftm.messages import ClientReply, ClientRequest, PeerEnvelope, estimate_size
from repro.ftm.proceed import PlainProceed, RedundantProceed
from repro.ftm.protocol import FTProtocol
from repro.ftm.replica import Replica
from repro.ftm.reply_log import ReplyLog
from repro.ftm.server_component import AppServer
from repro.ftm.sync_after import (
    AssertLfrSyncAfter,
    AssertPbrSyncAfter,
    LfrSyncAfter,
    PbrSyncAfter,
)
from repro.ftm.sync_before import LfrSyncBefore, PbrSyncBefore

__all__ = [
    "FTM_NAMES",
    "PATTERN_CLASSES",
    "VARIABLE_FEATURES",
    "check_ftm_name",
    "ftm_assembly",
    "variable_feature_distance",
    "Client",
    "FTMError",
    "UnknownFTM",
    "UnmaskedFault",
    "FTMPair",
    "deploy_ftm_pair",
    "HeartbeatFailureDetector",
    "ClientReply",
    "ClientRequest",
    "PeerEnvelope",
    "estimate_size",
    "PlainProceed",
    "RedundantProceed",
    "FTProtocol",
    "Replica",
    "ReplyLog",
    "AppServer",
    "AssertLfrSyncAfter",
    "AssertPbrSyncAfter",
    "LfrSyncAfter",
    "PbrSyncAfter",
    "LfrSyncBefore",
    "PbrSyncBefore",
]
