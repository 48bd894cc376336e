"""The append-only action log — the measurement event stream.

Every attempted social action is logged here (including blocked ones),
annotated with actor, target, tick, network endpoint, and API surface.
The detection, analysis, and intervention packages all consume this log;
it is the simulator's equivalent of the internal Instagram data the
paper's authors had access to.

The log is *indexed* (DESIGN.md "Performance architecture"): appends
maintain a parallel tick array and per-actor/per-target tick arrays, so
every ``[start_tick, end_tick)`` window query is a binary search plus a
slice instead of a full-log scan. That rests on one invariant the log
enforces itself: ticks never decrease. The platform stamps every append
with the clock, which only advances; an append below the log's tail
tick raises ``ValueError`` and changes nothing. Signature queries
(:meth:`ActionLog.by_signature`) filter a tick window; the pipeline's
attribution streams through the classifier's log observer instead
(:mod:`repro.detection.classifier`).

Storage is columnar (DESIGN.md §11 "Columnar world core"): rows live
in :class:`~repro.platform.columns.ActionColumns` (parallel stdlib
``array`` vectors plus a by-reference endpoint list), indices are
``array('q')`` vectors, and query results materialize transient
:class:`~repro.platform.columns.ActionView` flyweights.

:meth:`ActionLog.append_batch` is the one writer: ``log_action`` and
``append`` are one-row batches. Observers take row ranges: each is
called once per batch as ``observer(cols, start, end)``.

Query results are bit-identical to the brute-force list-scan log in
``tests/oracles/actionlog.py`` (property-tested in
``tests/test_platform_columnar_log.py``): same ids, same field values,
same ordering, and the same rejection of out-of-order appends.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Optional

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.columns import ActionColumns, ActionView
from repro.platform.models import (
    AccountId,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)

#: a log observer: called with the columns and one batch's row range
RowRangeObserver = Callable[[ActionColumns, int, int], None]


def _window(
    ticks, start_tick: Optional[int], end_tick: Optional[int]
) -> tuple[int, int]:
    """Offsets of ``[start_tick, end_tick)`` in a sorted tick array."""
    lo = 0 if start_tick is None else bisect_left(ticks, start_tick)
    hi = len(ticks) if end_tick is None else bisect_left(ticks, end_tick)
    return lo, max(hi, lo)


def _out_of_order(tick: int, prev: int) -> ValueError:
    """The rejection of a row stamped ``tick`` after a row at ``prev``."""
    return ValueError(
        f"out-of-order append: tick {tick} after tick {prev}; "
        "the action log only accepts appends in tick order"
    )


class ActionLog:
    """Append-only action store with tick/actor/target indices."""

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_appends = _obs.counter("platform.actionlog.appends")
        #: window queries, each a bisect over a tick index
        self._obs_window_query = _obs.counter("platform.actionlog.window_query")
        #: rows routed through :meth:`append_batch` — the "log_batch"
        #: cost kind (DESIGN.md §15), charged once per batch
        self._obs_batch_rows = _obs.counter("platform.actionlog.batch_rows")
        #: rows per flush; the mean is the batch amortization ratio the
        #: bench payloads report (histograms are never cost-classified,
        #: so per-flush telemetry cannot leak into the cost tree)
        self._obs_batch_fill = _obs.histogram("platform.actionlog.batch_fill")
        self._observers: list[RowRangeObserver] = []
        self._cols = ActionColumns(obs=_obs)
        #: the bisect index IS the tick column — zero duplication
        self._ticks = self._cols.ticks
        self._by_actor: dict[AccountId, array] = {}
        self._by_actor_ticks: dict[AccountId, array] = {}
        self._by_target: dict[AccountId, array] = {}
        self._by_target_ticks: dict[AccountId, array] = {}

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
    ) -> ActionView:
        """Append one action from scalar fields; returns the stored row.

        A one-row :meth:`append_batch`. The platform writes every row
        through the batch path (DESIGN.md §15); this adapter serves the
        test oracles and the log suites.
        """
        start = self.append_batch([(
            action_type, actor, tick, endpoint, api, status,
            target_account, target_media, comment_text,
        )])
        return ActionView(self._cols, start)

    def append(self, record) -> None:
        """Append one pre-built record as a one-row :meth:`append_batch`.

        ``record`` is any row carrying the record fields (``action_id``,
        ``action_type``, ``actor``, ``tick``, ``endpoint``, ``api``,
        ``status``, ``target_account``, ``target_media``, ``removed_at``,
        ``comment_text``) — an :class:`ActionView` of another log, or a
        hand-built row. Ids must be the log's next index and its tick no
        earlier than the log's tail. ``removed_at`` is written after the
        append, so observers see the row as appended."""
        if record.action_id != len(self):
            raise ValueError(
                f"action_id {record.action_id} out of order; expected {len(self)}"
            )
        self.append_batch([(
            record.action_type, record.actor, record.tick, record.endpoint,
            record.api, record.status, record.target_account,
            record.target_media, record.comment_text,
        )])
        if record.removed_at is not None:
            self._cols.removed_ats[record.action_id] = record.removed_at

    def append_batch(self, rows: list) -> int:
        """Append many actions in one call; returns the first action id.

        ``rows`` holds :meth:`log_action` argument tuples
        ``(action_type, actor, tick, endpoint, api, status,
        target_account, target_media, comment_text)``. This is the log's
        one writer. An out-of-order row rejects the whole batch: the
        ticks are checked before anything is stored. Then one
        :meth:`ActionColumns.push_batch`, index updates with locals
        hoisted out of the loop, counters charged once per batch, and
        each observer called once with the batch's row range.
        """
        if not rows:
            return len(self)
        cols = self._cols
        ticks = cols.ticks
        prev = ticks[-1] if ticks else rows[0][2]
        for row in rows:
            tick = row[2]
            if tick < prev:
                raise _out_of_order(tick, prev)
            prev = tick
        start = cols.push_batch(rows)
        by_actor = self._by_actor
        by_actor_ticks = self._by_actor_ticks
        by_target = self._by_target
        by_target_ticks = self._by_target_ticks
        # One pass over the original row tuples — cheaper than re-reading
        # the freshly pushed columns. Run-length memos skip the per-row
        # dict probes when consecutive rows share an actor or a target —
        # the common shape for AAS delivery bursts.
        last_actor = last_target = None
        a_ids = a_ticks = t_ids = t_ticks = None
        i = start
        for row in rows:
            actor = row[1]
            tick = row[2]
            if actor != last_actor:
                last_actor = actor
                a_ids = by_actor.get(actor)
                if a_ids is None:
                    a_ids = by_actor[actor] = array("q")
                    by_actor_ticks[actor] = array("q")
                a_ticks = by_actor_ticks[actor]
            a_ids.append(i)
            a_ticks.append(tick)
            target = row[6]
            if target is not None:
                if target != last_target:
                    last_target = target
                    t_ids = by_target.get(target)
                    if t_ids is None:
                        t_ids = by_target[target] = array("q")
                        by_target_ticks[target] = array("q")
                    t_ticks = by_target_ticks[target]
                t_ids.append(i)
                t_ticks.append(tick)
            i += 1
        end = i
        count = end - start
        self._obs_appends.inc(count)
        self._obs_batch_rows.inc(count)
        self._obs_batch_fill.observe(count)
        for observer in self._observers:
            observer(cols, start, end)
        return start

    def next_id(self) -> int:
        return len(self)

    @property
    def columns(self) -> ActionColumns:
        """The live row store, for readers that keep row ids and decode
        only the rows they return (the classifier's streams)."""
        return self._cols

    def __len__(self) -> int:
        return len(self._cols)

    def __iter__(self) -> Iterator[ActionView]:
        cols = self._cols
        return (ActionView(cols, i) for i in range(len(cols)))

    def get(self, action_id: int) -> ActionView:
        if not 0 <= action_id < len(self._cols):
            raise IndexError(f"action_id {action_id} out of range")
        return ActionView(self._cols, action_id)

    # ------------------------------------------------------------------
    # Observers (streaming consumers, e.g. incremental attribution)
    # ------------------------------------------------------------------

    def add_observer(self, observer: RowRangeObserver) -> None:
        """Call ``observer(cols, start, end)`` once per future append
        batch, with the columns and the batch's row range ``[start,
        end)``.

        Observers see rows already indexed; they must not append to the
        log themselves.
        """
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer: RowRangeObserver) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Window queries (bisect fast path)
    # ------------------------------------------------------------------

    def records_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> list[ActionView]:
        """All records in ``[start_tick, end_tick)``, in log order."""
        self._obs_window_query.inc()
        lo, hi = _window(self._ticks, start_tick, end_tick)
        cols = self._cols
        return [ActionView(cols, i) for i in range(lo, hi)]

    def _indexed_between(
        self,
        ids: dict,
        ticks: dict,
        key: AccountId,
        start_tick: Optional[int],
        end_tick: Optional[int],
    ) -> list[ActionView]:
        self._obs_window_query.inc()
        indices = ids.get(key)
        if not indices:
            return []
        lo, hi = _window(ticks[key], start_tick, end_tick)
        cols = self._cols
        return [ActionView(cols, i) for i in indices[lo:hi]]

    def by_actor(self, actor: AccountId) -> list[ActionView]:
        """All actions performed by ``actor`` (any status), in time order."""
        return [self.get(i) for i in self._by_actor.get(actor, ())]

    def by_actor_between(
        self,
        actor: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionView]:
        """``actor``'s actions within ``[start_tick, end_tick)``."""
        return self._indexed_between(
            self._by_actor, self._by_actor_ticks, actor, start_tick, end_tick
        )

    def by_target(self, target: AccountId) -> list[ActionView]:
        """All actions directed at ``target`` (any status), in time order."""
        return [self.get(i) for i in self._by_target.get(target, ())]

    def by_target_between(
        self,
        target: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionView]:
        """Actions directed at ``target`` within ``[start_tick, end_tick)``."""
        return self._indexed_between(
            self._by_target, self._by_target_ticks, target, start_tick, end_tick
        )

    def by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[ActionView]:
        """Records matching an (ASN, variant[, action type]) signature,
        within ``[start_tick, end_tick)``, in log order."""
        return [
            r
            for r in self.records_between(start_tick, end_tick)
            if (action_type is None or r.action_type is action_type)
            and r.endpoint.asn == asn
            and r.endpoint.fingerprint.variant == variant
        ]

    def inbound(self, target: AccountId, *, delivered_only: bool = True) -> list[ActionView]:
        """Actions received by ``target``; by default only ones that landed."""
        records = self.by_target(target)
        if delivered_only:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def outbound(self, actor: AccountId, *, delivered_only: bool = True) -> list[ActionView]:
        """Actions issued by ``actor``; by default only ones that landed."""
        records = self.by_actor(actor)
        if delivered_only:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def select(
        self,
        *,
        action_type: Optional[ActionType] = None,
        status: Optional[ActionStatus] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
        predicate: Optional[Callable[[ActionView], bool]] = None,
    ) -> list[ActionView]:
        """Filter the log, or its ``[start_tick, end_tick)`` window."""
        records: Iterable[ActionView] = self
        if start_tick is not None or end_tick is not None:
            self._obs_window_query.inc()
            lo, hi = _window(self._ticks, start_tick, end_tick)
            cols = self._cols
            records = [ActionView(cols, i) for i in range(lo, hi)]
        out = []
        for record in records:
            if action_type is not None and record.action_type is not action_type:
                continue
            if status is not None and record.status is not status:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def daily_count(
        self, actor: AccountId, day: int, action_type: Optional[ActionType] = None
    ) -> int:
        """Number of non-blocked actions by ``actor`` on zero-based ``day``."""
        count = 0
        for record in self.by_actor_between(actor, day * 24, (day + 1) * 24):
            if record.status is ActionStatus.BLOCKED:
                continue
            if action_type is not None and record.action_type is not action_type:
                continue
            count += 1
        return count
