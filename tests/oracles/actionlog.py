"""The brute-force reference action log.

:class:`ListActionLog` keeps a plain list of :class:`ActionRecord` and
answers every query with a linear scan in log order. It shares the
public API of :class:`repro.platform.actions.ActionLog` but none of its
bisect, bucket or column logic, so the property suites can compare the
production log against it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.platform.models import (
    AccountId,
    ActionRecord,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)


def _in_window(tick: int, start_tick: Optional[int], end_tick: Optional[int]) -> bool:
    if start_tick is not None and tick < start_tick:
        return False
    return end_tick is None or tick < end_tick


class ListActionLog:
    """A list of records; every query is a scan."""

    def __init__(self) -> None:
        self._records: list[ActionRecord] = []
        self._observers: list[Callable[[ActionRecord], None]] = []

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
        self.append(record)
        return record

    def append(self, record: ActionRecord) -> None:
        if record.action_id != len(self._records):
            raise ValueError(
                f"action_id {record.action_id} out of order; expected {len(self._records)}"
            )
        self._records.append(record)
        for observer in self._observers:
            observer(record)

    def append_batch(self, rows: list) -> int:
        start = len(self._records)
        for row in rows:
            self.log_action(*row)
        return start

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

    def add_observer(self, observer: Callable[[ActionRecord], None], batch=None) -> None:
        """``batch`` is accepted for API parity; batches arrive row by row."""
        if observer not in self._observers:
            self._observers.append(observer)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def ticks_monotonic(self) -> bool:
        ticks = [r.tick for r in self._records]
        return all(a <= b for a, b in zip(ticks, ticks[1:]))

    def offsets_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> tuple[int, int]:
        if not self.ticks_monotonic:
            raise ValueError("tick offsets undefined: log was appended out of tick order")
        lo = 0 if start_tick is None else sum(1 for r in self._records if r.tick < start_tick)
        hi = (
            len(self._records)
            if end_tick is None
            else sum(1 for r in self._records if r.tick < end_tick)
        )
        return lo, max(lo, hi)

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

    def signature_keys(self) -> list[tuple[int, ActionType, str]]:
        keys = {
            (r.endpoint.asn, r.action_type, r.endpoint.fingerprint.variant) for r in self._records
        }
        return sorted(keys, key=lambda k: (k[0], k[1].value, k[2]))

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

    def ids_by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[int]:
        return [
            r.action_id for r in self.by_signature(asn, variant, action_type, start_tick, end_tick)
        ]

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

    def actors(self) -> list[AccountId]:
        return list(dict.fromkeys(r.actor for r in self._records))
