"""Real-time notifications.

"When Instagram user A1 receives an (inbound) action from user B2, A1
will be notified in real-time about B2's action, and A1 may reciprocate"
(Section 3.1). The notification center is therefore the causal channel
through which reciprocity abuse works: AAS outbound actions produce
notifications, and the organic behaviour model consumes them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional

from repro.platform.models import AccountId, ActionType, MediaId


class Notification(NamedTuple):
    """One inbound-action notification delivered to a recipient.

    A ``NamedTuple`` rather than a frozen dataclass: notifications are
    constructed once per delivered action (the per-action hot path), and
    tuple construction skips the frozen-dataclass ``__init__`` +
    ``object.__setattr__`` overhead while keeping the same field access
    and value-equality semantics.
    """

    recipient: AccountId
    actor: AccountId
    action_type: ActionType
    tick: int
    media_id: Optional[MediaId] = None
    action_id: Optional[int] = None


class NotificationCenter:
    """Per-account notification inboxes with drain semantics.

    Consumers call :meth:`drain` to receive-and-clear pending items,
    mirroring a user checking their activity feed.
    """

    def __init__(self):
        self._inbox: dict[AccountId, list[Notification]] = defaultdict(list)
        self._delivered_total = 0

    def push(self, notification: Notification) -> None:
        self._inbox[notification.recipient].append(notification)
        self._delivered_total += 1

    def pending(self, recipient: AccountId) -> list[Notification]:
        """Peek at pending notifications without consuming them."""
        return list(self._inbox.get(recipient, ()))

    def drain(self, recipient: AccountId) -> list[Notification]:
        """Return and clear the recipient's pending notifications."""
        items = self._inbox.pop(recipient, [])
        return items

    def recipients_with_pending(self) -> list[AccountId]:
        """Accounts that currently have at least one pending notification."""
        return [account for account, items in self._inbox.items() if items]

    def clear_account(self, account: AccountId) -> None:
        """Drop an account's inbox (account deletion)."""
        self._inbox.pop(account, None)

    @property
    def delivered_total(self) -> int:
        """All-time count of delivered notifications."""
        return self._delivered_total
