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
``array`` vectors + interned endpoint table), indices are ``array('q')``
vectors, and query results materialize transient
:class:`~repro.platform.columns.ActionView` flyweights.

Query results are bit-identical to the brute-force list-scan log in
``tests/oracles/actionlog.py`` (property-tested in
``tests/test_platform_columnar_log.py``): same ids, same field values,
same ordering, and the same rejection of out-of-order appends.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.columns import ActionColumns, ActionView
from repro.platform.models import (
    AccountId,
    ActionRecord,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)

#: what the log hands back: column-backed flyweights, field-compatible
#: with :class:`ActionRecord` by construction
StoredAction = Union[ActionRecord, ActionView]

#: one pending batch row — the positional argument list of
#: :meth:`ActionLog.log_action` as a tuple
BatchRow = tuple


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
        self._observers: list[Callable[[StoredAction], None]] = []
        #: scalar observer -> its bulk implementation, when it has one
        self._batch_impls: dict[Callable[[StoredAction], None], Callable] = {}
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
    ) -> StoredAction:
        """Append one action from scalar fields; returns the stored row.

        The fields go straight into the columns (no record object is
        ever built). The platform writes every row through
        :meth:`append_batch` (DESIGN.md §15); this is its one-row
        reference, used by the test oracles and the log suites.
        """
        return self._push(
            action_type, actor, tick, endpoint, api, status,
            target_account, target_media, comment_text, None,
        )

    def append(self, record: ActionRecord) -> None:
        """Append one pre-built record; ids must be the log's next index
        and its tick no earlier than the log's tail."""
        if record.action_id != len(self):
            raise ValueError(
                f"action_id {record.action_id} out of order; expected {len(self)}"
            )
        self._push(
            record.action_type, record.actor, record.tick, record.endpoint,
            record.api, record.status, record.target_account,
            record.target_media, record.comment_text, record.removed_at,
        )

    def append_batch(self, rows: list) -> int:
        """Append many actions in one call; returns the first action id.

        ``rows`` holds :meth:`log_action` argument tuples
        ``(action_type, actor, tick, endpoint, api, status,
        target_account, target_media, comment_text)``. Semantically this
        is exactly ``for row in rows: log_action(*row)`` — same records,
        same indices, same observer ingestion order, same "log" cost
        units (the batch property suite replays that loop against it) —
        except that an out-of-order row rejects the whole batch: the
        ticks are checked before anything is stored.
        It takes the amortized path: one :meth:`ActionColumns.push_batch`,
        index updates with locals hoisted out of the loop, counters
        charged once per batch, and observers offered the whole row
        range (batch-capable observers consume it in bulk; plain
        observers still see one view per row).
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
        if self._observers:
            batch_impls = self._batch_impls
            for observer in self._observers:
                bulk = batch_impls.get(observer)
                if bulk is not None:
                    bulk(cols, start, end)
                else:
                    for i in range(start, end):
                        observer(ActionView(cols, i))
        return start

    def _push(
        self,
        action_type: ActionType,
        actor: AccountId,
        tick: int,
        endpoint: ClientEndpoint,
        api: ApiSurface,
        status: ActionStatus,
        target_account: Optional[AccountId],
        target_media: Optional[MediaId],
        comment_text: Optional[str],
        removed_at: Optional[int],
    ) -> ActionView:
        """The scalar append: column pushes + int-keyed index updates."""
        cols = self._cols
        ticks = cols.ticks
        if ticks and tick < ticks[-1]:
            raise _out_of_order(tick, ticks[-1])
        action_id = cols.push(
            action_type, actor, tick, endpoint, api, status,
            target_account, target_media, comment_text,
        )
        if removed_at is not None:
            cols.removed_ats[action_id] = removed_at
        ids = self._by_actor.get(actor)
        if ids is None:
            ids = self._by_actor[actor] = array("q")
            self._by_actor_ticks[actor] = array("q")
        ids.append(action_id)
        self._by_actor_ticks[actor].append(tick)
        if target_account is not None:
            ids = self._by_target.get(target_account)
            if ids is None:
                ids = self._by_target[target_account] = array("q")
                self._by_target_ticks[target_account] = array("q")
            ids.append(action_id)
            self._by_target_ticks[target_account].append(tick)
        self._obs_appends.inc()
        view = ActionView(cols, action_id)
        for observer in self._observers:
            observer(view)
        return view

    def next_id(self) -> int:
        return len(self)

    def __len__(self) -> int:
        return len(self._cols)

    def __iter__(self) -> Iterator[StoredAction]:
        cols = self._cols
        return (ActionView(cols, i) for i in range(len(cols)))

    def get(self, action_id: int) -> StoredAction:
        if not 0 <= action_id < len(self._cols):
            raise IndexError(f"action_id {action_id} out of range")
        return ActionView(self._cols, action_id)

    # ------------------------------------------------------------------
    # Observers (streaming consumers, e.g. incremental attribution)
    # ------------------------------------------------------------------

    def add_observer(
        self,
        observer: Callable[[StoredAction], None],
        batch: Optional[Callable[[ActionColumns, int, int], None]] = None,
    ) -> None:
        """Call ``observer(record)`` after every future append.

        Observers see records already indexed; they must not append to
        the log themselves. ``batch`` optionally registers a bulk
        implementation ``batch(cols, start, end)`` used in place of the
        per-row callable whenever rows arrive via :meth:`append_batch` —
        it must ingest rows ``[start, end)`` exactly as ``end - start``
        scalar calls would (the streaming classifier's contract).
        """
        if observer not in self._observers:
            self._observers.append(observer)
        if batch is not None:
            self._batch_impls[observer] = batch

    def remove_observer(self, observer: Callable[[StoredAction], None]) -> None:
        if observer in self._observers:
            self._observers.remove(observer)
        self._batch_impls.pop(observer, None)

    # ------------------------------------------------------------------
    # Window queries (bisect fast path)
    # ------------------------------------------------------------------

    def records_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> list[StoredAction]:
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
    ) -> list[StoredAction]:
        self._obs_window_query.inc()
        indices = ids.get(key)
        if not indices:
            return []
        lo, hi = _window(ticks[key], start_tick, end_tick)
        cols = self._cols
        return [ActionView(cols, i) for i in indices[lo:hi]]

    def by_actor(self, actor: AccountId) -> list[StoredAction]:
        """All actions performed by ``actor`` (any status), in time order."""
        return [self.get(i) for i in self._by_actor.get(actor, ())]

    def by_actor_between(
        self,
        actor: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[StoredAction]:
        """``actor``'s actions within ``[start_tick, end_tick)``."""
        return self._indexed_between(
            self._by_actor, self._by_actor_ticks, actor, start_tick, end_tick
        )

    def by_target(self, target: AccountId) -> list[StoredAction]:
        """All actions directed at ``target`` (any status), in time order."""
        return [self.get(i) for i in self._by_target.get(target, ())]

    def by_target_between(
        self,
        target: AccountId,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[StoredAction]:
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
    ) -> list[StoredAction]:
        """Records matching an (ASN, variant[, action type]) signature,
        within ``[start_tick, end_tick)``, in log order."""
        return [
            r
            for r in self.records_between(start_tick, end_tick)
            if (action_type is None or r.action_type is action_type)
            and r.endpoint.asn == asn
            and r.endpoint.fingerprint.variant == variant
        ]

    def inbound(self, target: AccountId, *, delivered_only: bool = True) -> list[StoredAction]:
        """Actions received by ``target``; by default only ones that landed."""
        records = self.by_target(target)
        if delivered_only:
            records = [r for r in records if r.status is not ActionStatus.BLOCKED]
        return records

    def outbound(self, actor: AccountId, *, delivered_only: bool = True) -> list[StoredAction]:
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
        predicate: Optional[Callable[[StoredAction], bool]] = None,
    ) -> list[StoredAction]:
        """Filter the log, or its ``[start_tick, end_tick)`` window."""
        records: Iterable[StoredAction] = self
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
