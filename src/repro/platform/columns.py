"""Struct-of-arrays storage for the action log's columnar mode.

One logged action is a row across parallel columns: stdlib ``array``
vectors for the integer fields and one plain list holding each row's
:class:`~repro.netsim.client.ClientEndpoint` by reference. Rows arrive
only in batches (:meth:`ActionColumns.push_batch`, called by the log's
one writer, :meth:`~repro.platform.actions.ActionLog.append_batch`).
The hot fields — tick, actor, targets, status — are flat 64-bit/8-bit
vectors: no per-record object header, no per-field pointer, and the
tick column doubles as the bisect index the window queries run on. The
endpoint column costs one 8-byte pointer per row; the world already
shares one endpoint object per client, so the column holds no copies.

:class:`ActionView` is the lazily-materialized, slotted flyweight every
log query returns: two slots (a store pointer and a row index), every
record field decoded on property access, and ``mark_removed`` writing
back through to the status and ``removed_at`` columns so countermeasure
undo closures see live log state. Views are transient — the log
materializes them on query.

Enum codes use the enum's definition order, which is part of the
platform API (reordering :class:`ActionType` would change serialized
datasets anyway). ``None`` targets/removal ticks encode as -1; account,
media, and tick values are all non-negative by construction.

The ``platform.actionlog.*`` counters written here and by
:mod:`repro.platform.actions` (appends, column appends, window queries
by path) are the "log" work units that perfbench reports as
``obs.cost_units.log`` (classified by :mod:`repro.obs.prof`).
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.netsim.client import ClientEndpoint
from repro.obs import NULL_OBS, Observability
from repro.platform.models import (
    AccountId,
    ActionStatus,
    ActionType,
    ApiSurface,
    MediaId,
)

#: definition-order code tables; decode is a tuple index. Encode is an
#: attribute read: the dense code is stamped onto each enum member as
#: ``.col_code``, because ``Enum.__hash__`` is a Python-level function
#: and an enum-keyed dict probe therefore costs a Python call on every
#: append — the member's instance dict does not.
_TYPES: tuple[ActionType, ...] = tuple(ActionType)
_STATUSES: tuple[ActionStatus, ...] = tuple(ActionStatus)
_APIS: tuple[ApiSurface, ...] = tuple(ApiSurface)
for _members in (_TYPES, _STATUSES, _APIS):
    for _code, _member in enumerate(_members):
        _member.col_code = _code

#: sentinel for "no value" in the optional int columns
NO_VALUE = -1


class ActionColumns:
    """The parallel column vectors behind a columnar action log."""

    __slots__ = (
        "ticks",
        "actors",
        "type_codes",
        "status_codes",
        "api_codes",
        "target_accounts",
        "target_medias",
        "removed_ats",
        "endpoints",
        "comment_texts",
        "_obs_rows",
    )

    def __init__(self, obs: Optional[Observability] = None):
        _obs = obs if obs is not None else NULL_OBS
        self.ticks = array("q")
        self.actors = array("q")
        self.type_codes = array("b")
        self.status_codes = array("b")
        self.api_codes = array("b")
        self.target_accounts = array("q")
        self.target_medias = array("q")
        self.removed_ats = array("q")
        #: each row's endpoint, by reference
        self.endpoints: list[ClientEndpoint] = []
        #: sparse: only COMMENT rows carry text
        self.comment_texts: dict[int, str] = {}
        #: one row = nine column appends; the SoA write amplification the
        #: bench payloads surface alongside the memory it buys back
        self._obs_rows = _obs.counter("platform.actionlog.column_appends")

    def __len__(self) -> int:
        return len(self.ticks)

    def push_batch(self, rows: list) -> int:
        """Append many rows in one call; returns the first action id.

        ``rows`` carries ``(action_type, actor, tick, endpoint, api,
        status, target_account, target_media, comment_text)`` tuples —
        the :meth:`ActionLog.log_action` argument list. The batch is
        transposed once (``zip(*rows)``) and each column lands in a
        single C-level ``extend``, so the only per-row Python work left
        is the enum-code and ``None``-sentinel comprehensions. The
        column-append counter is charged once with ``9 * n``: nine
        column appends per row.
        """
        start = len(self.ticks)
        n = len(rows)
        (
            types_t,
            actors_t,
            ticks_t,
            endpoints_t,
            apis_t,
            statuses_t,
            targets_t,
            medias_t,
            comments_t,
        ) = zip(*rows)
        self.ticks.extend(ticks_t)
        self.actors.extend(actors_t)
        self.type_codes.extend([t.col_code for t in types_t])
        self.status_codes.extend([s.col_code for s in statuses_t])
        self.api_codes.extend([a.col_code for a in apis_t])
        self.target_accounts.extend(
            [NO_VALUE if t is None else t for t in targets_t]
        )
        self.target_medias.extend([NO_VALUE if m is None else m for m in medias_t])
        self.removed_ats.extend([NO_VALUE] * n)
        self.endpoints.extend(endpoints_t)
        if comments_t.count(None) != n:
            comment_texts = self.comment_texts
            for offset, comment_text in enumerate(comments_t):
                if comment_text is not None:
                    comment_texts[start + offset] = comment_text
        self._obs_rows.inc(9 * n)
        return start

    def __getstate__(self) -> dict:
        # _obs_rows is included: the counter object is shared with the
        # study's metrics registry, and pickling the study keeps that
        # identity, so a restored world's column appends keep counting
        # into the same instrument (snapshot fidelity is test-enforced)
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)


class ActionView:
    """A slotted flyweight decoding one :class:`ActionColumns` row.

    :meth:`mark_removed` writes back to the status and ``removed_at``
    columns, so a view held by a delayed-removal closure observes and
    updates live log state. Two views are equal when they name the same
    row of the same columns; views are mutable and therefore unhashable.
    """

    __slots__ = ("_cols", "action_id")

    def __init__(self, cols: ActionColumns, action_id: int):
        self._cols = cols
        self.action_id = action_id

    @property
    def columns(self) -> ActionColumns:
        """The columns this view decodes, for readers that scan many
        rows by id instead of decoding one view per row."""
        return self._cols

    @property
    def action_type(self) -> ActionType:
        return _TYPES[self._cols.type_codes[self.action_id]]

    @property
    def actor(self) -> AccountId:
        return self._cols.actors[self.action_id]

    @property
    def tick(self) -> int:
        return self._cols.ticks[self.action_id]

    @property
    def endpoint(self) -> ClientEndpoint:
        return self._cols.endpoints[self.action_id]

    @property
    def api(self) -> ApiSurface:
        return _APIS[self._cols.api_codes[self.action_id]]

    @property
    def status(self) -> ActionStatus:
        return _STATUSES[self._cols.status_codes[self.action_id]]

    @property
    def target_account(self) -> Optional[AccountId]:
        value = self._cols.target_accounts[self.action_id]
        return None if value == NO_VALUE else value

    @property
    def target_media(self) -> Optional[MediaId]:
        value = self._cols.target_medias[self.action_id]
        return None if value == NO_VALUE else value

    @property
    def removed_at(self) -> Optional[int]:
        value = self._cols.removed_ats[self.action_id]
        return None if value == NO_VALUE else value

    @property
    def comment_text(self) -> Optional[str]:
        return self._cols.comment_texts.get(self.action_id)

    @property
    def asn(self) -> int:
        return self.endpoint.asn

    @property
    def day(self) -> int:
        return self._cols.ticks[self.action_id] // 24

    def mark_removed(self, tick: int) -> None:
        if self.status is not ActionStatus.DELIVERED:
            raise ValueError(f"cannot remove action in state {self.status}")
        self._cols.status_codes[self.action_id] = ActionStatus.REMOVED.col_code
        self._cols.removed_ats[self.action_id] = tick

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActionView):
            return NotImplemented
        return self._cols is other._cols and self.action_id == other.action_id

    __hash__ = None  # type: ignore[assignment]  # mutable: no stable hash

    def __repr__(self) -> str:
        return (
            f"ActionView(action_id={self.action_id}, type={self.action_type.value}, "
            f"actor={self.actor}, tick={self.tick}, status={self.status.value})"
        )
