"""Platform exception hierarchy.

API callers (organic drivers, honeypot tooling, AAS automation) catch
these to react — most importantly :class:`ActionBlockedError`, which is
the visible signal AAS block-detection logic keys on (Section 6.3).
"""

from __future__ import annotations


class PlatformError(Exception):
    """Base class for all platform-raised errors."""


class UnknownAccountError(PlatformError):
    """The referenced account does not exist (or was deleted)."""


class UnknownMediaError(PlatformError):
    """The referenced media item does not exist (or was removed)."""


class AuthenticationError(PlatformError):
    """Bad credentials."""


class RateLimitExceededError(PlatformError):
    """The public OAuth API's rate limit rejected the request."""


class ActionBlockedError(PlatformError):
    """A countermeasure synchronously blocked the action.

    The action did not take effect and the caller can observe that —
    this is the "oracle" property of transparent interventions.
    """


class InvalidActionError(PlatformError):
    """The action is structurally invalid (self-follow, double-like, ...)."""
