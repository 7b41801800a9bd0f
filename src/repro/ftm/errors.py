"""Exceptions of the component-based FTM layer."""

from __future__ import annotations


class FTMError(Exception):
    """Base class for FTM-layer errors."""


class UnmaskedFault(FTMError):
    """A value fault escaped the mechanism (no vote, assertion dead-end)."""


class UnknownFTM(FTMError):
    """Lookup of an FTM name that the catalog does not define."""
