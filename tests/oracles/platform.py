"""The scalar reference platform: one log row per action, written at once.

:class:`ScalarPlatform` is an :class:`InstagramPlatform` with no batch
scope. ``action_batch()`` is a plain no-op context, and every like,
follow, unfollow, comment and post consults the countermeasure engine,
applies its mutation and writes its row through
:meth:`ActionLog.log_action` before returning. BLOCKED rows are written
the same way. It reads ``has_policies`` per action, not once per scope.
The production platform defers every row into the open scope (a
one-action scope when none is open) and must leave the same log, graph,
likes, notifications and countermeasure state as this class, action for
action. Actions return their action id, as production's do.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.platform.auth import Session
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.errors import ActionBlockedError, InvalidActionError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import (
    AccountId,
    ActionStatus,
    ActionType,
    ApiSurface,
    Media,
    MediaId,
)
from repro.platform.notifications import Notification
from tests.oracles.actionlog import ActionRecord

_ALLOW = CountermeasureDecision.ALLOW
_DELAY_REMOVE = CountermeasureDecision.DELAY_REMOVE
_BLOCK = CountermeasureDecision.BLOCK


class ScalarPlatform(InstagramPlatform):
    """Every action checks, decides, mutates and logs on its own."""

    @contextmanager
    def action_batch(self) -> Iterator[None]:
        yield

    def _authorize(self, session: Session) -> AccountId:
        actor = self.auth.validate(session)
        self.get_account(actor)  # deleted accounts cannot act
        return actor

    def _log(
        self,
        action_type: ActionType,
        actor: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        target_account: Optional[AccountId] = None,
        target_media: Optional[MediaId] = None,
        comment_text: Optional[str] = None,
    ) -> ActionRecord:
        return self.log.log_action(
            action_type,
            actor,
            self.clock.now,
            endpoint,
            api,
            ActionStatus.DELIVERED,
            target_account=target_account,
            target_media=target_media,
            comment_text=comment_text,
        )

    def _consult(
        self,
        action_type: ActionType,
        actor: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        target_account: Optional[AccountId],
        target_media: Optional[MediaId],
    ) -> CountermeasureDecision:
        if not self.countermeasures.has_policies:
            return _ALLOW
        tick = self.clock.now
        decision = self.countermeasures.decide(
            ActionContext(actor, action_type, endpoint, tick, target_account, target_media)
        )
        if decision is _BLOCK:
            self.countermeasures.note_block()
            self.log.log_action(
                action_type,
                actor,
                tick,
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
    ) -> int:
        actor = self._authorize(session)
        media = self.media.get(media_id)
        if self.media.has_liked(media_id, actor):
            raise InvalidActionError(f"{actor} already likes media {media_id}")
        decision = self._consult(ActionType.LIKE, actor, endpoint, api, media.owner, media_id)
        self.media.like(media_id, actor)
        record = self._log(
            ActionType.LIKE, actor, endpoint, api, target_account=media.owner, target_media=media_id
        )
        if decision is _DELAY_REMOVE:
            self.countermeasures.schedule_removal(record.action_id, self.log.get, self._undo_like)
        if media.owner != actor:
            self._notify(record, media.owner)
        return record.action_id

    def follow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        actor = self._authorize(session)
        self.get_account(target)
        if self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} already follows {target}")
        decision = self._consult(ActionType.FOLLOW, actor, endpoint, api, target, None)
        self.graph.follow(actor, target)
        record = self._log(ActionType.FOLLOW, actor, endpoint, api, target_account=target)
        if decision is _DELAY_REMOVE:
            self.countermeasures.schedule_removal(record.action_id, self.log.get, self._undo_follow)
        self._notify(record, target)
        return record.action_id

    def unfollow(
        self,
        session: Session,
        target: AccountId,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        actor = self._authorize(session)
        if not self.graph.is_following(actor, target):
            raise InvalidActionError(f"{actor} does not follow {target}")
        self._consult(ActionType.UNFOLLOW, actor, endpoint, api, target, None)
        self.graph.unfollow(actor, target)
        return self._log(ActionType.UNFOLLOW, actor, endpoint, api, target_account=target).action_id

    def comment(
        self,
        session: Session,
        media_id: MediaId,
        text: str,
        endpoint: ClientEndpoint,
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> int:
        actor = self._authorize(session)
        media = self.media.get(media_id)
        if not text:
            raise InvalidActionError("comment text must be non-empty")
        self._consult(ActionType.COMMENT, actor, endpoint, api, media.owner, media_id)
        self.media.comment(media_id, actor, text)
        record = self._log(
            ActionType.COMMENT,
            actor,
            endpoint,
            api,
            target_account=media.owner,
            target_media=media_id,
            comment_text=text,
        )
        if media.owner != actor:
            self._notify(record, media.owner)
        return record.action_id

    def post(
        self,
        session: Session,
        endpoint: ClientEndpoint,
        caption: str = "",
        hashtags: tuple[str, ...] = (),
        api: ApiSurface = ApiSurface.PRIVATE_MOBILE,
    ) -> tuple[int, Media]:
        actor = self._authorize(session)
        self._consult(ActionType.POST, actor, endpoint, api, None, None)
        media = self.media.create(actor, self.clock.now, caption=caption, hashtags=hashtags)
        record = self._log(ActionType.POST, actor, endpoint, api, target_media=media.media_id)
        return record.action_id, media
