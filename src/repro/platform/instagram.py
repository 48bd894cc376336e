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
from repro.platform.countermeasures import (
    ActionContext,
    CountermeasureDecision,
    CountermeasureEngine,
)
from repro.platform.errors import (
    ActionBlockedError,
    InvalidActionError,
    UnknownAccountError,
)
from repro.platform.graph import FollowerGraph
from repro.platform.mediastore import MediaStore
from repro.platform.models import (
    Account,
    AccountId,
    ActionRecord,
    ActionStatus,
    ActionType,
    ApiSurface,
    Media,
    MediaId,
    Profile,
)
from repro.platform.notifications import Notification, NotificationCenter
from repro.util.timeutils import days


class _PendingBatch:
    """Deferred log rows for one open action-batch scope.

    ``base`` is the log length at scope entry (or after the last
    intra-scope flush): pending row *i* will become action id
    ``base + i``, which is how the facade hands out final action ids —
    for notifications, e.g. — before the rows are written.
    """

    __slots__ = ("base", "rows")

    def __init__(self, base: int):
        self.base = base
        self.rows: list[tuple] = []


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

    def all_account_ids(self, include_deleted: bool = False) -> list[AccountId]:
        if include_deleted:
            return sorted(self._accounts)
        return sorted(a for a, acc in self._accounts.items() if not acc.is_deleted)

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

    def reset_password(self, account_id: AccountId, new_password: str) -> None:
        self.get_account(account_id)
        self.auth.reset_password(account_id, new_password)

    # ------------------------------------------------------------------
    # Action batching (DESIGN.md §15)
    # ------------------------------------------------------------------

    @contextmanager
    def action_batch(self) -> Iterator[None]:
        """Open one actor-tick's batch scope.

        Inside the scope, delivered like/follow actions apply their
        platform mutations (graph edges, media likes, notifications)
        immediately — later actions in the same scope depend on them —
        but their log rows accumulate and land in one
        :meth:`ActionLog.append_batch` at scope exit, in exact submission
        order with the same action ids the per-action path would have
        assigned.

        The scope only defers when it can do so invisibly. With a
        countermeasure policy installed (policies need per-action
        contexts, BLOCK rows, and removal scheduling — the scalar path),
        or when nested inside an open scope, it is a no-op context.
        Policies are only ever (un)installed between agent runs, so the
        entry check cannot go stale mid-scope.
        """
        if self._batch is not None or self.countermeasures.has_policies:
            yield
            return
        batch = self._batch = _PendingBatch(self.log.next_id())
        try:
            yield
        finally:
            self._batch = None
            if batch.rows:
                self.log.append_batch(batch.rows)

    def _flush_batch(self) -> None:
        """Write pending rows out mid-scope, preserving log order.

        Called by the action paths that do not defer (unfollow, comment,
        post, and any path needing a materialized record): their scalar
        append must not overtake rows already submitted in this scope.
        """
        batch = self._batch
        if batch is not None and batch.rows:
            self.log.append_batch(batch.rows)
            batch.rows = []
            batch.base = self.log.next_id()

    # ------------------------------------------------------------------
    # Social actions
    # ------------------------------------------------------------------

    def _authorize(self, session: Session) -> AccountId:
        actor = self.auth.validate(session)
        self.get_account(actor)  # deleted accounts cannot act
        return actor

    def _log_action(
        self,
        action_type: ActionType,
        actor: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        status: ActionStatus,
        target_account: Optional[AccountId] = None,
        target_media: Optional[MediaId] = None,
        comment_text: Optional[str] = None,
    ) -> ActionRecord:
        record = self.log.log_action(
            action_type,
            actor,
            self.clock.now,
            endpoint,
            api,
            status,
            target_account=target_account,
            target_media=target_media,
            comment_text=comment_text,
        )
        batch = self._batch
        if batch is not None:
            # a scalar append inside an open scope lands after the flushed
            # rows; rows deferred from here on take the ids after it
            batch.base = record.action_id + 1
        return record

    def _consult_countermeasures(
        self,
        action_type: ActionType,
        actor: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        target_account: Optional[AccountId],
        target_media: Optional[MediaId],
    ) -> CountermeasureDecision:
        if not self.countermeasures.has_policies:
            # with no policy installed every decision is vacuously ALLOW
            # (and decide() is side-effect free), so skip building the
            # frozen per-action context
            return CountermeasureDecision.ALLOW
        context = ActionContext(
            actor=actor,
            action_type=action_type,
            endpoint=endpoint,
            tick=self.clock.now,
            target_account=target_account,
            target_media=target_media,
        )
        decision = self.countermeasures.decide(context)
        if decision is CountermeasureDecision.BLOCK:
            self.countermeasures.note_block()
            self._log_action(
                action_type,
                actor,
                endpoint,
                api,
                ActionStatus.BLOCKED,
                target_account=target_account,
                target_media=target_media,
            )
            raise ActionBlockedError(f"{action_type.value} by {actor} blocked")
        return decision

    def _notify(self, record: ActionRecord, recipient: AccountId) -> None:
        self.notifications.push(
            Notification(
                recipient=recipient,
                actor=record.actor,
                action_type=record.action_type,
                tick=record.tick,
                media_id=record.target_media,
                action_id=record.action_id,
            )
        )

    def like(
        self,
        session: Session,
        media_id: MediaId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> ActionRecord:
        """Like a media item; notifies the owner."""
        batch = self._batch
        if batch is not None:
            # batched path: same checks and mutations in the same
            # order (validate, account/media lookups, dup-like reject,
            # vacuous ALLOW, like, notify) with the log row deferred
            actor = self.auth.validate(session)
            account = self._accounts.get(actor)
            if account is None or account.is_deleted:
                raise UnknownAccountError(f"account {actor} not found")
            media = self.media.like_new(media_id, actor)
            owner = media.owner
            rows = batch.rows
            action_id = batch.base + len(rows)
            tick = self.clock.now
            rows.append(
                (
                    ActionType.LIKE,
                    actor,
                    tick,
                    endpoint,
                    api,
                    ActionStatus.DELIVERED,
                    owner,
                    media_id,
                    None,
                )
            )
            if owner != actor:
                self.notifications.push(
                    Notification(
                        recipient=owner,
                        actor=actor,
                        action_type=ActionType.LIKE,
                        tick=tick,
                        media_id=media_id,
                        action_id=action_id,
                    )
                )
            return None
        actor = self._authorize(session)
        media = self.media.get(media_id)
        if self.media.has_liked(media_id, actor):
            raise InvalidActionError(f"{actor} already likes media {media_id}")
        decision = self._consult_countermeasures(
            ActionType.LIKE, actor, endpoint, api, media.owner, media_id
        )
        self.media.like(media_id, actor)
        record = self._log_action(
            ActionType.LIKE,
            actor,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_account=media.owner,
            target_media=media_id,
        )
        if decision is CountermeasureDecision.DELAY_REMOVE:
            self.countermeasures.schedule_removal(record, self._undo_like)
        if media.owner != actor:
            self._notify(record, media.owner)
        return record

    def follow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> ActionRecord:
        """Follow another account; notifies the target."""
        batch = self._batch
        if batch is not None:
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
            self.graph.follow(actor, target)
            rows = batch.rows
            action_id = batch.base + len(rows)
            tick = self.clock.now
            rows.append(
                (
                    ActionType.FOLLOW,
                    actor,
                    tick,
                    endpoint,
                    api,
                    ActionStatus.DELIVERED,
                    target,
                    None,
                    None,
                )
            )
            self.notifications.push(
                Notification(
                    recipient=target,
                    actor=actor,
                    action_type=ActionType.FOLLOW,
                    tick=tick,
                    media_id=None,
                    action_id=action_id,
                )
            )
            return None
        actor = self._authorize(session)
        self.get_account(target)
        if self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} already follows {target}")
        decision = self._consult_countermeasures(
            ActionType.FOLLOW, actor, endpoint, api, target, None
        )
        self.graph.follow(actor, target)
        record = self._log_action(
            ActionType.FOLLOW,
            actor,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_account=target,
        )
        if decision is CountermeasureDecision.DELAY_REMOVE:
            self.countermeasures.schedule_removal(record, self._undo_follow)
        self._notify(record, target)
        return record

    def unfollow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> ActionRecord:
        """Withdraw a follow. No notification (Instagram is silent here)."""
        if self._batch is not None:
            self._flush_batch()  # scalar append must not overtake the scope
        actor = self._authorize(session)
        if not self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} does not follow {target}")
        self._consult_countermeasures(ActionType.UNFOLLOW, actor, endpoint, api, target, None)
        self.graph.unfollow(actor, target)
        return self._log_action(
            ActionType.UNFOLLOW,
            actor,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_account=target,
        )

    def comment(
        self,
        session: Session,
        media_id: MediaId,
        text: str,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> ActionRecord:
        """Comment on a media item; notifies the owner."""
        if self._batch is not None:
            self._flush_batch()  # scalar append must not overtake the scope
        actor = self._authorize(session)
        media = self.media.get(media_id)
        if not text:
            raise InvalidActionError("comment text must be non-empty")
        self._consult_countermeasures(
            ActionType.COMMENT, actor, endpoint, api, media.owner, media_id
        )
        self.media.comment(media_id, actor, text)
        record = self._log_action(
            ActionType.COMMENT,
            actor,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_account=media.owner,
            target_media=media_id,
            comment_text=text,
        )
        if media.owner != actor:
            self._notify(record, media.owner)
        return record

    def post(
        self,
        session: Session,
        endpoint: ClientEndpoint,
        caption: str = "",
        hashtags: tuple[str, ...] = (),
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> tuple[ActionRecord, Media]:
        """Publish a new media item."""
        if self._batch is not None:
            self._flush_batch()  # scalar append must not overtake the scope
        actor = self._authorize(session)
        self._consult_countermeasures(ActionType.POST, actor, endpoint, api, None, None)
        media = self.media.create(actor, self.clock.now, caption=caption, hashtags=hashtags)
        record = self._log_action(
            ActionType.POST,
            actor,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_media=media.media_id,
        )
        return record, media

    # ------------------------------------------------------------------
    # Delayed-removal undo hooks
    # ------------------------------------------------------------------

    def _undo_follow(self, record: ActionRecord) -> bool:
        if record.target_account is None:
            return False
        if not self.account_exists(record.actor) or not self.account_exists(record.target_account):
            return False
        if not self.graph.is_following(record.actor, record.target_account):
            return False
        self.graph.unfollow(record.actor, record.target_account)
        return True

    def _undo_like(self, record: ActionRecord) -> bool:
        if record.target_media is None:
            return False
        try:
            self.media.get(record.target_media)
        except Exception:
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
