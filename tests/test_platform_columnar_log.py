"""Property tests: columnar ActionLog vs the brute-force list oracle.

Feed the production log and :class:`tests.oracles.actionlog.ListActionLog`
the same append sequence and assert every query returns identical
results — same ids, same field values, same ordering.
"""

import pickle

import numpy as np
import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.util.rng import derive_rng
from repro.platform.actions import ActionLog
from repro.platform.columns import ActionColumns, ActionView
from repro.platform.models import (
    ActionStatus,
    ActionType,
    ApiSurface,
)

from tests.oracles.actionlog import ActionRecord, ListActionLog

_ENDPOINTS = [
    ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android")),
    ClientEndpoint(0x0A000002, 64512, DeviceFingerprint("ios")),
    # same (asn, variant) as the first endpoint, different IP: signature
    # queries must return both (AAS exits rotate IPs per ASN)
    ClientEndpoint(0x0A0000FF, 64512, DeviceFingerprint("android")),
    ClientEndpoint(0x0B000001, 64999, DeviceFingerprint("android")),
]

_FIELDS = (
    "action_id",
    "action_type",
    "actor",
    "tick",
    "endpoint",
    "api",
    "status",
    "target_account",
    "target_media",
    "comment_text",
    "removed_at",
)


def _row(record):
    return tuple(getattr(record, field) for field in _FIELDS)


def _rows(records):
    return [_row(r) for r in records]


def _range_rows(store, start: int, end: int) -> list:
    """The rows an observer was offered: the production log passes its
    columns, the list oracle its record list."""
    if isinstance(store, ActionColumns):
        return [_row(ActionView(store, i)) for i in range(start, end)]
    return _rows(store[start:end])


def _random_append(log, rng: np.random.Generator, tick: int):
    action_type = list(ActionType)[int(rng.integers(0, len(ActionType)))]
    status = (
        ActionStatus.BLOCKED if rng.random() < 0.15 else ActionStatus.DELIVERED
    )
    target = int(rng.integers(1, 9)) if rng.random() < 0.8 else None
    media = int(rng.integers(100, 110)) if rng.random() < 0.4 else None
    comment = "nice pic" if action_type is ActionType.COMMENT else None
    return log.log_action(
        action_type,
        int(rng.integers(1, 9)),
        tick,
        _ENDPOINTS[int(rng.integers(0, len(_ENDPOINTS)))],
        ApiSurface.PRIVATE_MOBILE,
        status,
        target_account=target,
        target_media=media,
        comment_text=comment,
    )


def _build_pair(seed: int) -> tuple[ActionLog, ListActionLog]:
    """Two logs (columnar, oracle) fed one randomized append sequence."""
    fast, ref = ActionLog(), ListActionLog()
    rng_fast, rng_ref = derive_rng(seed, "columnar-log"), derive_rng(seed, "columnar-log")
    tick = 0
    for step in range(300):
        tick += int(rng_fast.integers(0, 3))
        rng_ref.integers(0, 3)
        _random_append(fast, rng_fast, tick)
        record = _random_append(ref, rng_ref, tick)
        remove_draw = rng_ref.random()
        rng_fast.random()  # keep the mirrored rng streams aligned
        if record.status is ActionStatus.DELIVERED and remove_draw < 0.1:
            removal_tick = tick + 24
            fast.get(record.action_id).mark_removed(removal_tick)
            record.mark_removed(removal_tick)
    return fast, ref


def _assert_queries_equivalent(fast: ActionLog, ref) -> None:
    assert len(fast) == len(ref)
    assert _rows(iter(fast)) == _rows(iter(ref))
    windows = [(None, None), (0, 10), (5, 40), (20, 20), (None, 30), (10, None)]
    for account in range(1, 9):
        assert _rows(fast.by_actor(account)) == _rows(ref.by_actor(account))
        assert _rows(fast.by_target(account)) == _rows(ref.by_target(account))
        assert _rows(fast.inbound(account)) == _rows(ref.inbound(account))
        assert _rows(fast.outbound(account)) == _rows(ref.outbound(account))
        assert fast.daily_count(account, 0) == ref.daily_count(account, 0)
        for start, end in windows:
            assert _rows(fast.by_actor_between(account, start, end)) == _rows(
                ref.by_actor_between(account, start, end)
            )
            assert _rows(fast.by_target_between(account, start, end)) == _rows(
                ref.by_target_between(account, start, end)
            )
    for start, end in windows:
        assert _rows(fast.records_between(start, end)) == _rows(
            ref.records_between(start, end)
        )
        assert _rows(fast.select(start_tick=start, end_tick=end)) == _rows(
            ref.select(start_tick=start, end_tick=end)
        )
    for asn, variant in sorted({(e.asn, e.fingerprint.variant) for e in _ENDPOINTS}):
        assert _rows(fast.by_signature(asn, variant)) == _rows(ref.by_signature(asn, variant))
        for action_type in (None, ActionType.LIKE, ActionType.FOLLOW):
            assert _rows(
                fast.by_signature(asn, variant, action_type, 5, 40)
            ) == _rows(ref.by_signature(asn, variant, action_type, 5, 40))
    assert _rows(
        fast.select(action_type=ActionType.LIKE, status=ActionStatus.DELIVERED)
    ) == _rows(ref.select(action_type=ActionType.LIKE, status=ActionStatus.DELIVERED))


class TestColumnarLogEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotonic_append_sequences(self, seed):
        fast, ref = _build_pair(seed)
        _assert_queries_equivalent(fast, ref)

    def test_synthetic_record_append_roundtrips(self):
        """append() of pre-built records (the test-fixture path) must land
        in the columns field-for-field, including removed_at."""
        fast, ref = ActionLog(), ListActionLog()
        for log in (fast, ref):
            log.append(
                ActionRecord(
                    action_id=0,
                    action_type=ActionType.FOLLOW,
                    actor=3,
                    tick=7,
                    endpoint=_ENDPOINTS[0],
                    api=ApiSurface.PUBLIC_OAUTH,
                    status=ActionStatus.REMOVED,
                    target_account=4,
                    removed_at=31,
                )
            )
        assert _row(fast.get(0)) == _row(ref.get(0))

    @pytest.mark.parametrize("seed", [0])
    def test_pickle_roundtrip(self, seed):
        fast, ref = _build_pair(seed)
        fast2 = pickle.loads(pickle.dumps(fast))
        ref2 = pickle.loads(pickle.dumps(ref))
        _assert_queries_equivalent(fast2, ref2)
        # restored logs keep appending with correct ids
        next_id = len(fast2)
        view = fast2.log_action(
            ActionType.LIKE, 1, 10 ** 6, _ENDPOINTS[0],
            ApiSurface.PRIVATE_MOBILE, ActionStatus.DELIVERED,
        )
        record = ref2.log_action(
            ActionType.LIKE, 1, 10 ** 6, _ENDPOINTS[0],
            ApiSurface.PRIVATE_MOBILE, ActionStatus.DELIVERED,
        )
        assert view.action_id == record.action_id == next_id
        assert _row(view) == _row(record)

    def test_observers_see_flyweights_in_append_order(self):
        """Each one-row append offers its observers the range of that
        one row, and the rows read through it match the oracle's."""
        fast, ref = ActionLog(), ListActionLog()
        seen_fast, seen_ref = [], []
        ranges_fast, ranges_ref = [], []

        def observe_fast(cols, start, end):
            ranges_fast.append((start, end))
            seen_fast.extend(_range_rows(cols, start, end))

        def observe_ref(records, start, end):
            ranges_ref.append((start, end))
            seen_ref.extend(_range_rows(records, start, end))

        fast.add_observer(observe_fast)
        ref.add_observer(observe_ref)
        rng_fast, rng_ref = derive_rng(5, "columnar-log"), derive_rng(5, "columnar-log")
        for tick in range(20):
            _random_append(fast, rng_fast, tick)
            _random_append(ref, rng_ref, tick)
        assert seen_fast == seen_ref == _rows(iter(fast))
        assert ranges_fast == ranges_ref == [(i, i + 1) for i in range(20)]

    def test_mark_removed_rejects_non_delivered(self):
        fast = ActionLog()
        view = fast.log_action(
            ActionType.LIKE, 1, 0, _ENDPOINTS[0],
            ApiSurface.PRIVATE_MOBILE, ActionStatus.BLOCKED,
        )
        with pytest.raises(ValueError):
            view.mark_removed(5)
        ok = fast.log_action(
            ActionType.LIKE, 1, 1, _ENDPOINTS[0],
            ApiSurface.PRIVATE_MOBILE, ActionStatus.DELIVERED,
        )
        ok.mark_removed(9)
        # write-through: a fresh view over the same row sees the removal
        assert fast.get(ok.action_id).status is ActionStatus.REMOVED
        assert fast.get(ok.action_id).removed_at == 9
