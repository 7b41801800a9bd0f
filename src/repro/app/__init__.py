"""Application layer: the business logic the FTMs protect."""

import repro.app.applications  # noqa: F401 - registers the built-in catalog
from repro.app.registry import (
    ApplicationInfo,
    application_info,
    get_assertion,
    register_application,
    register_assertion,
)

__all__ = [
    "ApplicationInfo",
    "application_info",
    "get_assertion",
    "register_application",
    "register_assertion",
]
