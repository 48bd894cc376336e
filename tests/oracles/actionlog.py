"""The brute-force reference action log and its row type.

:class:`ActionRecord` is a plain mutable dataclass carrying the fields
of one logged action — the row the production log decodes through
:class:`repro.platform.columns.ActionView`. Tests build rows by hand
with it, and :meth:`repro.platform.actions.ActionLog.append` accepts it.

:class:`ListActionLog` keeps a plain list of :class:`ActionRecord` and
answers every query with a linear scan in log order. It shares the
public API of :class:`repro.platform.actions.ActionLog` but none of its
bisect or column logic, so the property suites can compare the
production log against it. Like the production log it only accepts
appends in tick order, a rejected call changes nothing, and each
observer is called once per stored batch with the batch's row range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.platform.models import (
    AccountId,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)


@dataclass(slots=True)
class ActionRecord:
    """One logged social action with full attribution signals.

    Who acted, on whom/what, when, from which network origin, over which
    API surface. ``status`` evolves if a delayed countermeasure later
    removes the action.
    """

    action_id: int
    action_type: ActionType
    actor: AccountId
    tick: int
    endpoint: ClientEndpoint
    api: ApiSurface
    status: ActionStatus
    target_account: Optional[AccountId] = None
    target_media: Optional[MediaId] = None
    removed_at: Optional[int] = None
    comment_text: Optional[str] = None

    @property
    def asn(self) -> int:
        return self.endpoint.asn

    @property
    def day(self) -> int:
        return self.tick // 24

    def mark_removed(self, tick: int) -> None:
        if self.status is not ActionStatus.DELIVERED:
            raise ValueError(f"cannot remove action in state {self.status}")
        self.status = ActionStatus.REMOVED
        self.removed_at = tick


def _in_window(tick: int, start_tick: Optional[int], end_tick: Optional[int]) -> bool:
    if start_tick is not None and tick < start_tick:
        return False
    return end_tick is None or tick < end_tick


class ListActionLog:
    """A list of records; every query is a scan."""

    def __init__(self) -> None:
        self._records: list[ActionRecord] = []
        self._observers: list[Callable[[list[ActionRecord], int, int], None]] = []

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def log_action(
        self,
        action_type: ActionType,
        actor: AccountId,
        tick: int,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        status: ActionStatus,
        target_account: Optional[AccountId] = None,
        target_media: Optional[MediaId] = None,
        comment_text: Optional[str] = None,
    ) -> ActionRecord:
        record = ActionRecord(
            action_id=len(self._records),
            action_type=action_type,
            actor=actor,
            tick=tick,
            endpoint=endpoint,
            api=api,
            status=status,
            target_account=target_account,
            target_media=target_media,
            comment_text=comment_text,
        )
        self._store([record])
        return record

    def append(self, record: ActionRecord) -> None:
        if record.action_id != len(self._records):
            raise ValueError(
                f"action_id {record.action_id} out of order; expected {len(self._records)}"
            )
        self._store([record])

    def append_batch(self, rows: list) -> int:
        start = len(self._records)
        self._store([
            ActionRecord(
                action_id=start + offset,
                action_type=action_type,
                actor=actor,
                tick=tick,
                endpoint=endpoint,
                api=api,
                status=status,
                target_account=target_account,
                target_media=target_media,
                comment_text=comment_text,
            )
            for offset, (
                action_type, actor, tick, endpoint, api, status,
                target_account, target_media, comment_text,
            ) in enumerate(rows)
        ])
        return start

    def _store(self, records: list[ActionRecord]) -> None:
        """Check every tick, then store the records and offer the
        observers their row range; a rejected call changes nothing."""
        ticks = [r.tick for r in self._records[-1:]] + [r.tick for r in records]
        for prev, tick in zip(ticks, ticks[1:]):
            if tick < prev:
                raise ValueError(f"out-of-order append: tick {tick} after tick {prev}")
        if not records:
            return
        start = len(self._records)
        self._records.extend(records)
        for observer in self._observers:
            observer(self._records, start, len(self._records))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ActionRecord]:
        return iter(self._records)

    def get(self, action_id: int) -> ActionRecord:
        if not 0 <= action_id < len(self._records):
            raise IndexError(f"action_id {action_id} out of range")
        return self._records[action_id]

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def add_observer(self, observer: Callable[[list[ActionRecord], int, int], None]) -> None:
        """Call ``observer(records, start, end)`` once per stored batch:
        the oracle's record list stands where the production log passes
        its columns."""
        if observer not in self._observers:
            self._observers.append(observer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def select(
        self,
        *,
        action_type: Optional[ActionType] = None,
        status: Optional[ActionStatus] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
        predicate: Optional[Callable[[ActionRecord], bool]] = None,
    ) -> list[ActionRecord]:
        return [
            r
            for r in self._records
            if (action_type is None or r.action_type is action_type)
            and (status is None or r.status is status)
            and _in_window(r.tick, start_tick, end_tick)
            and (predicate is None or predicate(r))
        ]

    def records_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> list[ActionRecord]:
        return self.select(start_tick=start_tick, end_tick=end_tick)

    def by_actor(self, actor: AccountId) -> list[ActionRecord]:
        return [r for r in self._records if r.actor == actor]

    def by_actor_between(
        self,
        actor: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return self.select(
            start_tick=start_tick, end_tick=end_tick, predicate=lambda r: r.actor == actor
        )

    def by_target(self, target: AccountId) -> list[ActionRecord]:
        return [r for r in self._records if r.target_account == target]

    def by_target_between(
        self,
        target: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return self.select(
            start_tick=start_tick, end_tick=end_tick, predicate=lambda r: r.target_account == target
        )

    def by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionRecord]:
        return self.select(
            action_type=action_type,
            start_tick=start_tick,
            end_tick=end_tick,
            predicate=lambda r: r.endpoint.asn == asn and r.endpoint.fingerprint.variant == variant,
        )

    def inbound(self, target: AccountId, *, delivered_only: bool = True) -> list[ActionRecord]:
        return [
            r
            for r in self.by_target(target)
            if not delivered_only or r.status is not ActionStatus.BLOCKED
        ]

    def outbound(self, actor: AccountId, *, delivered_only: bool = True) -> list[ActionRecord]:
        return [
            r
            for r in self.by_actor(actor)
            if not delivered_only or r.status is not ActionStatus.BLOCKED
        ]

    def daily_count(
        self, actor: AccountId, day: int, action_type: Optional[ActionType] = None
    ) -> int:
        return sum(
            1
            for r in self.by_actor_between(actor, day * 24, (day + 1) * 24)
            if r.status is not ActionStatus.BLOCKED
            and (action_type is None or r.action_type is action_type)
        )
