"""The FTM catalog: blueprints for the illustrative set (Figure 2/Table 3).

Every FTM of the set maps to the *same* component topology (Figure 6):

====================  =========================================================
component             role
====================  =========================================================
``protocol``          common part — client comms, at-most-once, orchestration
``syncBefore``        variable feature — server-coordination step
``proceed``           variable feature — execution step
``syncAfter``         variable feature — agreement-coordination step
``replyLog``          common part — reply log + stashes (the FTM's state)
``server``            common part — the protected application
``failureDetector``   common part — heartbeat crash detection
====================  =========================================================

Only the three variable features differ between FTMs, so
``AssemblySpec.diff`` between any two catalog entries touches 1–3
components — exactly the differential-transition granularity Table 3 and
Figure 9 measure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple, Type

from repro.components.impl import ComponentImpl
from repro.components.spec import (
    AssemblySpec,
    ComponentSpec,
    PromotionSpec,
    WireSpec,
)
from repro.ftm.errors import UnknownFTM
from repro.ftm.failure_detector import HeartbeatFailureDetector
from repro.ftm.proceed import PlainProceed, RedundantProceed
from repro.ftm.protocol import FTProtocol
from repro.ftm.reply_log import ReplyLog
from repro.ftm.server_component import AppServer
from repro.ftm.sync_after import (
    AssertLfrSyncAfter,
    AssertPbrSyncAfter,
    LfrSyncAfter,
    PbrSyncAfter,
)
from repro.ftm.sync_before import LfrSyncBefore, PbrSyncBefore
from repro.patterns import LFR, LFR_A, LFR_TR, PBR, PBR_A, PBR_TR
from repro.vocabulary import FTM_NAMES


#: The three variable features of each FTM.
VARIABLE_FEATURES: Dict[str, Dict[str, Type[ComponentImpl]]] = {
    "pbr": {
        "syncBefore": PbrSyncBefore,
        "proceed": PlainProceed,
        "syncAfter": PbrSyncAfter,
    },
    "lfr": {
        "syncBefore": LfrSyncBefore,
        "proceed": PlainProceed,
        "syncAfter": LfrSyncAfter,
    },
    "pbr+tr": {
        "syncBefore": PbrSyncBefore,
        "proceed": RedundantProceed,
        "syncAfter": PbrSyncAfter,
    },
    "lfr+tr": {
        "syncBefore": LfrSyncBefore,
        "proceed": RedundantProceed,
        "syncAfter": LfrSyncAfter,
    },
    "a+pbr": {
        "syncBefore": PbrSyncBefore,
        "proceed": PlainProceed,
        "syncAfter": AssertPbrSyncAfter,
    },
    "a+lfr": {
        "syncBefore": LfrSyncBefore,
        "proceed": PlainProceed,
        "syncAfter": AssertLfrSyncAfter,
    },
}

#: The pattern class carrying each FTM's (FT, A, R) metadata (Table 1).
PATTERN_CLASSES = {
    "pbr": PBR,
    "lfr": LFR,
    "pbr+tr": PBR_TR,
    "lfr+tr": LFR_TR,
    "a+pbr": PBR_A,
    "a+lfr": LFR_A,
}

#: Uniform wiring topology (Figure 6) shared by every FTM of the set.
_WIRES: Tuple[WireSpec, ...] = (
    WireSpec("protocol", "before", "syncBefore", "sync"),
    WireSpec("protocol", "exec", "proceed", "exec"),
    WireSpec("protocol", "after", "syncAfter", "sync"),
    WireSpec("protocol", "log", "replyLog", "log"),
    WireSpec("protocol", "server", "server", "app"),
    WireSpec("syncBefore", "exec", "proceed", "exec"),
    WireSpec("syncBefore", "log", "replyLog", "log"),
    WireSpec("proceed", "server", "server", "app"),
    WireSpec("syncAfter", "server", "server", "app"),
    WireSpec("syncAfter", "log", "replyLog", "log"),
    WireSpec("syncAfter", "exec", "proceed", "exec"),
    WireSpec("failureDetector", "control", "protocol", "control"),
)

_PROMOTIONS: Tuple[PromotionSpec, ...] = (
    PromotionSpec("request", "protocol", "request"),
    PromotionSpec("peer", "protocol", "peer"),
    PromotionSpec("control", "protocol", "control"),
    PromotionSpec("fd", "failureDetector", "fd"),
)


def check_ftm_name(name: str) -> str:
    """Validate an FTM name against the catalog; returns it unchanged."""
    if name not in VARIABLE_FEATURES:
        raise UnknownFTM(f"unknown FTM {name!r} (catalog has: {sorted(FTM_NAMES)})")
    return name


@lru_cache(maxsize=None)
def ftm_assembly(
    ftm: str,
    role: str,
    peer: str,
    app: str = "counter",
    assertion: str = "always-true",
    composite: str = "ftm",
    fd_period: float = 20.0,
    fd_timeout: float = 60.0,
) -> AssemblySpec:
    """Build the blueprint of one replica side of an FTM.

    ``role`` is ``"master"`` or ``"slave"``; ``peer`` is the other
    replica's node name.  ``app`` / ``assertion`` are registry names.

    Memoized: specs are deeply frozen (tuples of frozen dataclasses),
    so repeated deployments of the same configuration — thousands per
    campaign — share one blueprint instead of rebuilding it.
    """
    check_ftm_name(ftm)
    features = VARIABLE_FEATURES[ftm]

    sync_after_props = {}
    if ftm.startswith("a+"):
        sync_after_props["assertion"] = assertion

    components = (
        ComponentSpec.make(
            "protocol", FTProtocol, {"role": role, "peer": peer}, size=8192
        ),
        ComponentSpec.make("syncBefore", features["syncBefore"], size=3072),
        ComponentSpec.make("proceed", features["proceed"], size=4096),
        ComponentSpec.make("syncAfter", features["syncAfter"], sync_after_props, size=4608),
        ComponentSpec.make("replyLog", ReplyLog, size=2048),
        ComponentSpec.make("server", AppServer, {"app": app}, size=6144),
        ComponentSpec.make(
            "failureDetector",
            HeartbeatFailureDetector,
            {"peer": peer, "period": fd_period, "timeout": fd_timeout},
            size=2560,
        ),
    )
    return AssemblySpec(
        name=composite, components=components, wires=_WIRES, promotions=_PROMOTIONS
    )


def variable_feature_distance(ftm_a: str, ftm_b: str) -> int:
    """How many of the three variable features differ between two FTMs.

    This is the component count of the differential transition — the x-axis
    of Figure 9 (1, 2 or 3 components replaced).
    """
    check_ftm_name(ftm_a)
    check_ftm_name(ftm_b)
    features_a = VARIABLE_FEATURES[ftm_a]
    features_b = VARIABLE_FEATURES[ftm_b]
    return sum(
        1 for slot in ("syncBefore", "proceed", "syncAfter")
        if features_a[slot] is not features_b[slot]
    )
