"""The Instagram-like platform simulator.

This package is the stand-in for the live Instagram service that the
paper measured from the inside. It provides:

* account lifecycle (creation, login, deletion — and
  deletion removes the account's actions, as the paper's honeypot
  cleanup relies on),
* the follower graph and media store,
* the five social actions the AASs traffic in: ``like``, ``follow``,
  ``comment``, ``post``, ``unfollow``,
* an append-only, signal-annotated action log (the event stream every
  downstream measurement consumes),
* two API surfaces: the public OAuth API (rate limited so it "precludes
  broad abusive use") and the private mobile API that AASs spoof,
* a notification system that drives organic reciprocity, and
* a countermeasure engine supporting synchronous blocks and delayed
  removal (Section 6.1).
"""

from repro.platform.clock import SimClock
from repro.platform.errors import (
    ActionBlockedError,
    AuthenticationError,
    PlatformError,
    RateLimitExceededError,
    UnknownAccountError,
    UnknownMediaError,
)
from repro.platform.models import (
    Account,
    AccountId,
    ActionStatus,
    ActionType,
    Media,
    MediaId,
)
from repro.platform.graph import FollowerGraph
from repro.platform.actions import ActionLog
from repro.platform.notifications import Notification, NotificationCenter
from repro.platform.ratelimit import SlidingWindowLimiter
from repro.platform.auth import AuthService, Session
from repro.platform.countermeasures import (
    CountermeasureDecision,
    CountermeasureEngine,
    CountermeasurePolicy,
)
from repro.platform.instagram import InstagramPlatform
from repro.platform.api import PrivateMobileAPI, PublicGraphAPI

__all__ = [
    "SimClock",
    "PlatformError",
    "AuthenticationError",
    "RateLimitExceededError",
    "ActionBlockedError",
    "UnknownAccountError",
    "UnknownMediaError",
    "Account",
    "AccountId",
    "ActionStatus",
    "ActionType",
    "Media",
    "MediaId",
    "FollowerGraph",
    "ActionLog",
    "Notification",
    "NotificationCenter",
    "SlidingWindowLimiter",
    "AuthService",
    "Session",
    "CountermeasureDecision",
    "CountermeasureEngine",
    "CountermeasurePolicy",
    "InstagramPlatform",
    "PublicGraphAPI",
    "PrivateMobileAPI",
]
