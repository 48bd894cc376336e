"""Core platform data types: accounts, media, and the action enums.

A logged action is a row of the action log's columns, read through
:class:`repro.platform.columns.ActionView`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

AccountId = int
MediaId = int


class ActionType(enum.Enum):
    """The social actions AASs automate (paper Table 1)."""

    LIKE = "like"
    FOLLOW = "follow"
    COMMENT = "comment"
    POST = "post"
    UNFOLLOW = "unfollow"

    #: identity hash in C: members are singletons compared by identity,
    #: and ``Enum.__hash__`` is a Python-level call on every dict probe
    __hash__ = object.__hash__


class ActionStatus(enum.Enum):
    """Lifecycle of a logged action under countermeasures."""

    DELIVERED = "delivered"
    BLOCKED = "blocked"
    REMOVED = "removed"  # delivered, then undone by delayed removal


class ApiSurface(enum.Enum):
    """Which API surface carried the request."""

    PUBLIC_OAUTH = "public-oauth"
    PRIVATE_MOBILE = "private-mobile"


@dataclass
class Profile:
    """Public profile fields; lived-in honeypots fill all of them."""

    display_name: str = ""
    biography: str = ""
    has_profile_picture: bool = False

    @property
    def completeness(self) -> float:
        """Fraction of profile fields populated, in [0, 1]."""
        filled = sum([bool(self.display_name), bool(self.biography), self.has_profile_picture])
        return filled / 3.0


@dataclass
class Account:
    """A platform account."""

    account_id: AccountId
    username: str
    created_at: int
    profile: Profile = field(default_factory=Profile)
    is_deleted: bool = False
    deleted_at: Optional[int] = None

    def __post_init__(self):
        if not self.username:
            raise ValueError("username must be non-empty")


@dataclass
class Media:
    """A photo/video post."""

    media_id: MediaId
    owner: AccountId
    created_at: int
    caption: str = ""
    hashtags: tuple[str, ...] = ()
    is_removed: bool = False
