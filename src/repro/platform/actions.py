"""The append-only action log — the measurement event stream.

Every attempted social action is logged here (including blocked ones),
annotated with actor, target, tick, network endpoint, and API surface.
The detection, analysis, and intervention packages all consume this log;
it is the simulator's equivalent of the internal Instagram data the
paper's authors had access to.

The log is *indexed* (DESIGN.md "Performance architecture"): appends
maintain a parallel tick array, per-actor/per-target tick arrays, and
per-(ASN, action type, client-variant) signature buckets, so every
``[start_tick, end_tick)`` window query is a binary search plus a slice
instead of a full-log scan. The platform appends in simulation order, so
ticks are non-decreasing and the bisect fast path applies; a log built
with out-of-order ticks (possible when tests append synthetic records)
degrades transparently to the brute-force filters.

Storage is columnar (DESIGN.md §11 "Columnar world core"): rows live
in :class:`~repro.platform.columns.ActionColumns` (parallel stdlib
``array`` vectors + interned endpoint table), indices are ``array('q')``
vectors, signature buckets key on interned ids resolved through an
``(endpoint id, type code)`` fast map instead of hashing a tuple per
append, and query results materialize transient
:class:`~repro.platform.columns.ActionView` flyweights.

Query results are bit-identical to the brute-force list-scan log in
``tests/oracles/actionlog.py`` (property-tested in
``tests/test_platform_columnar_log.py``): same ids, same field values,
same ordering, including the out-of-order-append fallback paths.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.columns import (
    N_ACTION_TYPES,
    ActionColumns,
    ActionView,
)
from repro.platform.models import (
    AccountId,
    ActionRecord,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)

#: a signature-bucket key: (ASN, action type, client fingerprint variant)
SignatureKey = tuple[int, ActionType, str]

#: what the log hands back: column-backed flyweights, field-compatible
#: with :class:`ActionRecord` by construction
StoredAction = Union[ActionRecord, ActionView]

#: one pending batch row — the positional argument list of
#: :meth:`ActionLog.log_action` as a tuple
BatchRow = tuple

#: decode table for reading type codes back out of the columns
_TYPE_BY_CODE: tuple[ActionType, ...] = tuple(ActionType)


def _window(
    ticks, start_tick: Optional[int], end_tick: Optional[int]
) -> tuple[int, int]:
    """Offsets of ``[start_tick, end_tick)`` in a sorted tick array."""
    lo = 0 if start_tick is None else bisect_left(ticks, start_tick)
    hi = len(ticks) if end_tick is None else bisect_left(ticks, end_tick)
    return lo, max(hi, lo)


class ActionLog:
    """Append-only action store with tick/actor/target/signature indices."""

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_appends = _obs.counter("platform.actionlog.appends")
        #: window queries answered by the bisect indices vs. ones that fell
        #: back to a linear scan (out-of-order log) — the index hit rate
        self._obs_query_index = _obs.counter("platform.actionlog.window_query", path="index")
        self._obs_query_scan = _obs.counter("platform.actionlog.window_query", path="scan")
        #: rows routed through :meth:`append_batch` — the "log_batch"
        #: cost kind (DESIGN.md §15). A pre-bound handle: the flush loop
        #: charges it once per batch with ``add(n)``.
        self._obs_batch_rows = _obs.bound_counter("platform.actionlog.batch_rows")
        #: rows per flush; the mean is the batch amortization ratio the
        #: bench payloads report (histograms are never cost-classified,
        #: so per-flush telemetry cannot leak into the cost tree)
        self._obs_batch_fill = _obs.histogram("platform.actionlog.batch_fill")
        self._observers: list[Callable[[StoredAction], None]] = []
        #: scalar observer -> its bulk implementation, when it has one
        self._batch_impls: dict[Callable[[StoredAction], None], Callable] = {}
        self._monotonic = True
        self._cols = ActionColumns(obs=_obs)
        #: the bisect index IS the tick column — zero duplication
        self._ticks = self._cols.ticks
        self._by_actor: dict[AccountId, array] = {}
        self._by_actor_ticks: dict[AccountId, array] = {}
        self._by_target: dict[AccountId, array] = {}
        self._by_target_ticks: dict[AccountId, array] = {}
        #: signature buckets keyed on dense signature ids; the value
        #: key table resolves the public (ASN, type, variant) queries
        self._by_signature: dict[int, array] = {}
        self._by_signature_ticks: dict[int, array] = {}
        self._sig_keys: list[SignatureKey] = []
        self._sig_ids: dict[SignatureKey, int] = {}
        #: (endpoint id, type code) -> that signature's (ids, ticks)
        #: bucket arrays; saves building and hashing a (int, enum,
        #: str) tuple plus two bucket-dict probes on every append
        self._sig_fast: dict[int, tuple[array, array]] = {}

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

        The platform's append path: the fields go straight into the
        columns (no record object is ever built).
        """
        return self._push(
            action_type, actor, tick, endpoint, api, status,
            target_account, target_media, comment_text, None,
        )

    def append(self, record: ActionRecord) -> None:
        """Append one pre-built record; ids must be the log's next index."""
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
        units (the batch property suite replays that loop against it).
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
        prev_tick = ticks[-1] if ticks else None
        start = cols.push_batch(rows)
        by_actor = self._by_actor
        by_actor_ticks = self._by_actor_ticks
        by_target = self._by_target
        by_target_ticks = self._by_target_ticks
        sig_fast = self._sig_fast
        endpoint_ids = cols.endpoint_ids
        monotonic = self._monotonic
        # One pass over the original row tuples — cheaper than re-reading
        # the freshly pushed columns — folding the monotonic check into
        # the index walk. Run-length memos keyed by *object identity*
        # (the interner guarantees one id per endpoint object, and enum
        # members are singletons) skip the per-row dict probes when
        # consecutive rows share an actor or an (endpoint, type) pair —
        # the common shape for AAS delivery bursts.
        last_actor = last_target = last_endpoint = last_type = None
        a_ids = a_ticks = t_ids = t_ticks = bucket = None
        i = start
        for row in rows:
            action_type = row[0]
            actor = row[1]
            tick = row[2]
            if monotonic and prev_tick is not None and tick < prev_tick:
                monotonic = False
            prev_tick = tick
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
            endpoint = row[3]
            if endpoint is not last_endpoint or action_type is not last_type:
                last_endpoint = endpoint
                last_type = action_type
                fast_key = endpoint_ids[i] * N_ACTION_TYPES + action_type.col_code
                bucket = sig_fast.get(fast_key)
                if bucket is None:
                    key = (endpoint.asn, action_type, endpoint.fingerprint.variant)
                    sig = self._sig_ids.get(key)
                    if sig is None:
                        sig = len(self._sig_keys)
                        self._sig_ids[key] = sig
                        self._sig_keys.append(key)
                        self._by_signature[sig] = array("q")
                        self._by_signature_ticks[sig] = array("q")
                    bucket = sig_fast[fast_key] = (
                        self._by_signature[sig],
                        self._by_signature_ticks[sig],
                    )
            bucket[0].append(i)
            bucket[1].append(tick)
            i += 1
        self._monotonic = monotonic
        end = i
        count = end - start
        self._obs_appends.add(count)
        self._obs_batch_rows.add(count)
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
        if self._monotonic and ticks and tick < ticks[-1]:
            self._monotonic = False
        action_id, endpoint_id = cols.push(
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
        fast_key = endpoint_id * N_ACTION_TYPES + action_type.col_code
        bucket = self._sig_fast.get(fast_key)
        if bucket is None:
            key = (endpoint.asn, action_type, endpoint.fingerprint.variant)
            sig = self._sig_ids.get(key)
            if sig is None:
                sig = len(self._sig_keys)
                self._sig_ids[key] = sig
                self._sig_keys.append(key)
                self._by_signature[sig] = array("q")
                self._by_signature_ticks[sig] = array("q")
            bucket = self._sig_fast[fast_key] = (
                self._by_signature[sig],
                self._by_signature_ticks[sig],
            )
        bucket[0].append(action_id)
        bucket[1].append(tick)
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

    def _tick_of(self, action_id: int) -> int:
        return self._ticks[action_id]

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

    @property
    def ticks_monotonic(self) -> bool:
        """Whether appends arrived in tick order (enables bisect paths)."""
        return self._monotonic

    def offsets_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> tuple[int, int]:
        """``(lo, hi)`` record-id offsets covering ``[start_tick, end_tick)``.

        Only meaningful while :attr:`ticks_monotonic` holds; raises
        otherwise so callers cannot silently read a wrong slice.
        """
        if not self._monotonic:
            raise ValueError("tick offsets undefined: log was appended out of tick order")
        self._obs_query_index.inc()
        return _window(self._ticks, start_tick, end_tick)

    def records_between(
        self, start_tick: Optional[int] = None, end_tick: Optional[int] = None
    ) -> list[StoredAction]:
        """All records in ``[start_tick, end_tick)``, in log order."""
        if self._monotonic:
            self._obs_query_index.inc()
            lo, hi = _window(self._ticks, start_tick, end_tick)
            cols = self._cols
            return [ActionView(cols, i) for i in range(lo, hi)]
        return self.select(start_tick=start_tick, end_tick=end_tick)

    def _indexed_between(
        self,
        ids: dict,
        ticks: dict,
        key: AccountId,
        start_tick: Optional[int],
        end_tick: Optional[int],
    ) -> list[StoredAction]:
        (self._obs_query_index if self._monotonic else self._obs_query_scan).inc()
        indices = ids.get(key)
        if not indices:
            return []
        if self._monotonic:
            lo, hi = _window(ticks[key], start_tick, end_tick)
            cols = self._cols
            return [ActionView(cols, i) for i in indices[lo:hi]]
        out = []
        for i in indices:
            tick = self._tick_of(i)
            if start_tick is not None and tick < start_tick:
                continue
            if end_tick is not None and tick >= end_tick:
                continue
            out.append(self.get(i))
        return out

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

    def signature_keys(self) -> list[SignatureKey]:
        """Every (ASN, action type, variant) bucket present, sorted."""
        return sorted(self._sig_keys, key=lambda k: (k[0], k[1].value, k[2]))

    def _signature_bucket(self, key: SignatureKey):
        """The (ids, ticks) bucket arrays for a signature key, if present."""
        sig = self._sig_ids.get(key)
        if sig is None:
            return None, None
        return self._by_signature[sig], self._by_signature_ticks[sig]

    def ids_by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[int]:
        """Record ids in the (asn, action_type, variant) bucket(s), sorted.

        With ``action_type=None`` the per-type buckets are merged back
        into log order.
        """
        (self._obs_query_index if self._monotonic else self._obs_query_scan).inc()
        if action_type is not None:
            keys = [(asn, action_type, variant)]
        else:
            keys = [(asn, t, variant) for t in ActionType]
        selected: list = []
        for key in keys:
            indices, ticks = self._signature_bucket(key)
            if not indices:
                continue
            if self._monotonic:
                lo, hi = _window(ticks, start_tick, end_tick)
                selected.append(indices[lo:hi])
            else:
                selected.append(
                    [
                        i
                        for i in indices
                        if (start_tick is None or self._tick_of(i) >= start_tick)
                        and (end_tick is None or self._tick_of(i) < end_tick)
                    ]
                )
        if not selected:
            return []
        if len(selected) == 1:
            return list(selected[0])
        merged: list[int] = []
        for ids in selected:
            merged.extend(ids)
        merged.sort()
        return merged

    def by_signature(
        self,
        asn: int,
        variant: str,
        action_type: Optional[ActionType] = None,
        start_tick: Optional[int] = None,
        end_tick: Optional[int] = None,
    ) -> list[StoredAction]:
        """Records matching an (ASN, variant[, action type]) signature."""
        return [
            self.get(i)
            for i in self.ids_by_signature(asn, variant, action_type, start_tick, end_tick)
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
        """Filter the full log. ``end_tick`` is exclusive."""
        records: Iterable[StoredAction] = self
        if self._monotonic and (start_tick is not None or end_tick is not None):
            self._obs_query_index.inc()
            lo, hi = _window(self._ticks, start_tick, end_tick)
            cols = self._cols
            records = [ActionView(cols, i) for i in range(lo, hi)]
            start_tick = end_tick = None
        elif start_tick is not None or end_tick is not None:
            self._obs_query_scan.inc()
        out = []
        for record in records:
            if action_type is not None and record.action_type is not action_type:
                continue
            if status is not None and record.status is not status:
                continue
            if start_tick is not None and record.tick < start_tick:
                continue
            if end_tick is not None and record.tick >= end_tick:
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

    def actors(self) -> Iterable[AccountId]:
        """Every account that has issued at least one action."""
        return self._by_actor.keys()
