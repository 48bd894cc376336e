"""The platform facade: everything callers touch goes through here.

:class:`InstagramPlatform` wires together the clock, auth, follower
graph, media store, action log, notification center, and countermeasure
engine. The API surfaces in :mod:`repro.platform.api` are thin wrappers
over this facade that add the public-API rate limits and the private-API
spoofing semantics.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.actions import ActionLog
from repro.platform.auth import AuthService, Session
from repro.platform.clock import SimClock
from repro.platform.columns import ActionView
from repro.platform.countermeasures import (
    ActionContext,
    CountermeasureDecision,
    CountermeasureEngine,
)
from repro.platform.errors import (
    ActionBlockedError,
    InvalidActionError,
    UnknownAccountError,
    UnknownMediaError,
)
from repro.platform.graph import FollowerGraph
from repro.platform.mediastore import MediaStore
from repro.platform.models import (
    Account,
    AccountId,
    ActionStatus,
    ActionType,
    ApiSurface,
    Media,
    MediaId,
    Profile,
)
from repro.platform.notifications import Notification, NotificationCenter
from repro.util.timeutils import days

_ALLOW = CountermeasureDecision.ALLOW
_DELAY_REMOVE = CountermeasureDecision.DELAY_REMOVE
_BLOCK = CountermeasureDecision.BLOCK
_DELIVERED = ActionStatus.DELIVERED


class _PendingBatch:
    """Deferred log rows for one open action-batch scope.

    ``base`` is the log length at scope entry, fixed for the scope's
    lifetime: pending row *i* becomes action id ``base + i``, which is
    how every action returns its final id — and hands it to
    notifications and delayed removals — before the row is written.
    ``policed`` records whether a countermeasure policy was installed at
    scope entry, i.e. whether the scope's actions consult the engine.
    """

    __slots__ = ("base", "rows", "policed")

    def __init__(self, base: int, policed: bool):
        self.base = base
        self.rows: list[tuple] = []
        self.policed = policed


class InstagramPlatform:
    """The simulated social network."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        removal_delay_ticks: int = days(1),
        obs: Optional[Observability] = None,
    ):
        self.clock = clock if clock is not None else SimClock()
        #: telemetry handle; platform-adjacent layers (action log, API
        #: limiters, AAS emission counters) pick their instruments off it
        self.obs = obs if obs is not None else NULL_OBS
        self.auth = AuthService()
        #: the columnar data plane (DESIGN.md §11): the SoA follower graph
        #: and the column-backed action log
        self.graph = FollowerGraph(obs=self.obs)
        self.media = MediaStore()
        self.log = ActionLog(obs=self.obs)
        self.notifications = NotificationCenter()
        self.countermeasures = CountermeasureEngine(self.clock, removal_delay_ticks)
        self._batch: Optional[_PendingBatch] = None
        self._accounts: dict[AccountId, Account] = {}
        self._by_username: dict[str, AccountId] = {}
        self._account_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Account lifecycle
    # ------------------------------------------------------------------

    def create_account(
        self, username: str, password: str, profile: Optional[Profile] = None
    ) -> Account:
        """Register a new account."""
        if username in self._by_username:
            raise ValueError(f"username {username!r} is taken")
        account = Account(
            account_id=next(self._account_ids),
            username=username,
            created_at=self.clock.now,
            profile=profile if profile is not None else Profile(),
        )
        self._accounts[account.account_id] = account
        self._by_username[username] = account.account_id
        self.auth.register(account.account_id, password)
        return account

    def get_account(self, account_id: AccountId) -> Account:
        account = self._accounts.get(account_id)
        if account is None or account.is_deleted:
            raise UnknownAccountError(f"account {account_id} not found")
        return account

    def account_exists(self, account_id: AccountId) -> bool:
        account = self._accounts.get(account_id)
        return account is not None and not account.is_deleted

    def resolve_username(self, username: str) -> AccountId:
        account_id = self._by_username.get(username)
        if account_id is None or not self.account_exists(account_id):
            raise UnknownAccountError(f"username {username!r} not found")
        return account_id

    def delete_account(self, account_id: AccountId) -> None:
        """Delete an account and scrub its platform footprint.

        "When deleting a honeypot account, all actions to or from the
        account are eventually removed from Instagram" (Section 4.1.1):
        follow edges in both directions, the account's likes, and its
        media all go away. The action *log* is retained — it is the
        measurement dataset, not user-visible platform state.
        """
        account = self.get_account(account_id)
        self.graph.drop_account(account_id)
        self.media.drop_likes_by(account_id)
        self.media.remove_account_media(account_id)
        self.notifications.clear_account(account_id)
        self.auth.drop(account_id)
        account.is_deleted = True
        account.deleted_at = self.clock.now

    def login(self, username: str, password: str, endpoint: ClientEndpoint) -> Session:
        account_id = self.resolve_username(username)
        return self.auth.login(account_id, password, endpoint, self.clock.now)

    # ------------------------------------------------------------------
    # Action batching (DESIGN.md §15)
    # ------------------------------------------------------------------

    @contextmanager
    def action_batch(self) -> Iterator[None]:
        """Open one actor-tick's batch scope.

        Every action runs inside a scope. It applies its platform
        mutations (graph edges, media likes, comments and posts,
        notifications) immediately — later actions in the same scope
        depend on them — and queues its log row, BLOCKED rows included.
        The rows land in one :meth:`ActionLog.append_batch` at scope
        exit, in submission order; each action returns its row's final
        id (scope base + position). An action called with no scope open
        opens a one-action scope itself, so its row is written when the
        call returns.

        With a countermeasure policy installed, each action builds its
        :class:`ActionContext` and consults the engine; a BLOCK raises
        :class:`ActionBlockedError` after queueing its row, and a delayed
        removal is scheduled against the row's final id. Whether to
        police is read once, at entry: policies are only ever
        (un)installed between agent runs, so the check cannot go stale
        mid-scope. Nested inside an open scope, the scope is a no-op.
        """
        if self._batch is not None:
            yield
            return
        batch = self._batch = _PendingBatch(
            self.log.next_id(), self.countermeasures.has_policies
        )
        try:
            yield
        finally:
            self._batch = None
            if batch.rows:
                self.log.append_batch(batch.rows)

    # ------------------------------------------------------------------
    # Social actions
    # ------------------------------------------------------------------

    def _police(
        self,
        action_type: ActionType,
        actor: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        target_account: Optional[AccountId],
        target_media: Optional[MediaId],
    ) -> CountermeasureDecision:
        """Ask the installed policies about one action.

        A BLOCK is counted, queues a BLOCKED row in the open scope and
        raises :class:`ActionBlockedError`.
        """
        tick = self.clock.now
        decision = self.countermeasures.decide(
            ActionContext(actor, action_type, endpoint, tick, target_account, target_media)
        )
        if decision is _BLOCK:
            self.countermeasures.note_block()
            self._batch.rows.append(
                (action_type, actor, tick, endpoint, api, ActionStatus.BLOCKED,
                 target_account, target_media, None)
            )
            # ``_value_`` is the member's plain attribute; ``.value`` is
            # a Python-level descriptor call
            raise ActionBlockedError(f"{action_type._value_} by {actor} blocked")
        return decision

    def like(
        self,
        session: Session,
        media_id: MediaId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        """Like a media item; notifies the owner. Returns the action id."""
        batch = self._batch
        if batch is None:
            with self.action_batch():
                return self.like(session, media_id, endpoint, api)
        actor = self.auth.validate(session)
        account = self._accounts.get(actor)
        if account is None or account.is_deleted:
            raise UnknownAccountError(f"account {actor} not found")
        if batch.policed:
            owner = self.media.get(media_id).owner
            if self.media.has_liked(media_id, actor):
                raise InvalidActionError(f"{actor} already likes media {media_id}")
            decision = self._police(ActionType.LIKE, actor, endpoint, api, owner, media_id)
            self.media.like(media_id, actor)
        else:
            owner = self.media.like(media_id, actor).owner
            decision = _ALLOW
        rows = batch.rows
        action_id = batch.base + len(rows)
        tick = self.clock.now
        rows.append(
            (ActionType.LIKE, actor, tick, endpoint, api, _DELIVERED, owner, media_id, None)
        )
        if decision is _DELAY_REMOVE:
            self.countermeasures.schedule_removal(action_id, self.log.get, self._undo_like)
        if owner != actor:
            self.notifications.push(
                Notification(owner, actor, ActionType.LIKE, tick, media_id, action_id)
            )
        return action_id

    def follow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        """Follow another account; notifies the target. Returns the action id."""
        batch = self._batch
        if batch is None:
            with self.action_batch():
                return self.follow(session, target, endpoint, api)
        actor = self.auth.validate(session)
        accounts = self._accounts
        account = accounts.get(actor)
        if account is None or account.is_deleted:
            raise UnknownAccountError(f"account {actor} not found")
        target_account = accounts.get(target)
        if target_account is None or target_account.is_deleted:
            raise UnknownAccountError(f"account {target} not found")
        if self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} already follows {target}")
        if batch.policed:
            decision = self._police(ActionType.FOLLOW, actor, endpoint, api, target, None)
        else:
            decision = _ALLOW
        self.graph.follow(actor, target)
        rows = batch.rows
        action_id = batch.base + len(rows)
        tick = self.clock.now
        rows.append((ActionType.FOLLOW, actor, tick, endpoint, api, _DELIVERED, target, None, None))
        if decision is _DELAY_REMOVE:
            self.countermeasures.schedule_removal(action_id, self.log.get, self._undo_follow)
        self.notifications.push(
            Notification(target, actor, ActionType.FOLLOW, tick, None, action_id)
        )
        return action_id

    def unfollow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        """Withdraw a follow; returns the action id. No notification
        (Instagram is silent here)."""
        batch = self._batch
        if batch is None:
            with self.action_batch():
                return self.unfollow(session, target, endpoint, api)
        actor = self.auth.validate(session)
        account = self._accounts.get(actor)
        if account is None or account.is_deleted:
            raise UnknownAccountError(f"account {actor} not found")
        if not self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} does not follow {target}")
        if batch.policed:
            self._police(ActionType.UNFOLLOW, actor, endpoint, api, target, None)
        self.graph.unfollow(actor, target)
        rows = batch.rows
        action_id = batch.base + len(rows)
        rows.append(
            (ActionType.UNFOLLOW, actor, self.clock.now, endpoint, api, _DELIVERED,
             target, None, None)
        )
        return action_id

    def comment(
        self,
        session: Session,
        media_id: MediaId,
        text: str,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        """Comment on a media item; notifies the owner. Returns the action id."""
        batch = self._batch
        if batch is None:
            with self.action_batch():
                return self.comment(session, media_id, text, endpoint, api)
        actor = self.auth.validate(session)
        self.get_account(actor)  # deleted accounts cannot act
        owner = self.media.get(media_id).owner
        if not text:
            raise InvalidActionError("comment text must be non-empty")
        if batch.policed:
            self._police(ActionType.COMMENT, actor, endpoint, api, owner, media_id)
        self.media.comment(media_id, actor, text)
        rows = batch.rows
        action_id = batch.base + len(rows)
        tick = self.clock.now
        rows.append(
            (ActionType.COMMENT, actor, tick, endpoint, api, _DELIVERED, owner, media_id, text)
        )
        if owner != actor:
            self.notifications.push(
                Notification(owner, actor, ActionType.COMMENT, tick, media_id, action_id)
            )
        return action_id

    def post(
        self,
        session: Session,
        endpoint: ClientEndpoint,
        caption: str = "",
        hashtags: tuple[str, ...] = (),
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> tuple[int, Media]:
        """Publish a new media item; returns the action id and the media."""
        batch = self._batch
        if batch is None:
            with self.action_batch():
                return self.post(session, endpoint, caption, hashtags, api)
        actor = self.auth.validate(session)
        self.get_account(actor)  # deleted accounts cannot act
        if batch.policed:
            self._police(ActionType.POST, actor, endpoint, api, None, None)
        tick = self.clock.now
        media = self.media.create(actor, tick, caption=caption, hashtags=hashtags)
        rows = batch.rows
        action_id = batch.base + len(rows)
        rows.append(
            (ActionType.POST, actor, tick, endpoint, api, _DELIVERED, None, media.media_id, None)
        )
        return action_id, media

    # ------------------------------------------------------------------
    # Delayed-removal undo hooks
    # ------------------------------------------------------------------

    def _undo_follow(self, record: ActionView) -> bool:
        if record.target_account is None:
            return False
        if not self.account_exists(record.actor) or not self.account_exists(record.target_account):
            return False
        if not self.graph.is_following(record.actor, record.target_account):
            return False
        self.graph.unfollow(record.actor, record.target_account)
        return True

    def _undo_like(self, record: ActionView) -> bool:
        if record.target_media is None:
            return False
        try:
            self.media.get(record.target_media)
        except UnknownMediaError:
            return False
        if not self.media.has_liked(record.target_media, record.actor):
            return False
        self.media.unlike(record.target_media, record.actor)
        return True

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------

    def follower_count(self, account_id: AccountId) -> int:
        return self.graph.in_degree(account_id)

    def following_count(self, account_id: AccountId) -> int:
        return self.graph.out_degree(account_id)

    def engagement_rate(self, account_id: AccountId) -> Optional[float]:
        """ER = (likes + comments) / followers (Section 2)."""
        return self.media.engagement_rate(account_id, self.follower_count(account_id))
