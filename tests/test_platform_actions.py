"""Tests for repro.platform.actions (the action log)."""

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog
from repro.platform.models import ActionRecord, ActionStatus, ActionType, ApiSurface


def record(log, action_type=ActionType.LIKE, actor=1, target=2, tick=0, status=ActionStatus.DELIVERED):
    r = ActionRecord(
        action_id=log.next_id(),
        action_type=action_type,
        actor=actor,
        tick=tick,
        endpoint=ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )
    log.append(r)
    return r


class TestActionLog:
    def test_append_and_query(self):
        log = ActionLog()
        r = record(log)
        assert len(log) == 1
        # the log copies the record's fields into its columns and hands
        # back views over them
        stored = log.get(r.action_id)
        assert (stored.action_id, stored.action_type, stored.actor, stored.tick) == (
            r.action_id, r.action_type, r.actor, r.tick
        )
        assert (stored.endpoint, stored.status, stored.target_account) == (
            r.endpoint, r.status, r.target_account
        )
        assert log.by_actor(1) == [stored]
        assert log.by_target(2) == [stored]

    def test_out_of_order_id_rejected(self):
        log = ActionLog()
        bad = ActionRecord(
            action_id=5,
            action_type=ActionType.LIKE,
            actor=1,
            tick=0,
            endpoint=ClientEndpoint(1, 1, DeviceFingerprint("android")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=ActionStatus.DELIVERED,
        )
        with pytest.raises(ValueError):
            log.append(bad)

    def test_inbound_excludes_blocked_by_default(self):
        log = ActionLog()
        record(log, status=ActionStatus.DELIVERED)
        record(log, status=ActionStatus.BLOCKED)
        assert len(log.inbound(2)) == 1
        assert len(log.inbound(2, delivered_only=False)) == 2

    def test_outbound_includes_removed(self):
        log = ActionLog()
        r = record(log)
        r.mark_removed(24)
        assert len(log.outbound(1)) == 1  # removed still happened (then undone)

    def test_select_filters(self):
        log = ActionLog()
        record(log, action_type=ActionType.LIKE, tick=1)
        record(log, action_type=ActionType.FOLLOW, tick=5)
        record(log, action_type=ActionType.FOLLOW, tick=9)
        follows = log.select(action_type=ActionType.FOLLOW, start_tick=2, end_tick=9)
        assert len(follows) == 1
        assert follows[0].tick == 5

    def test_select_predicate(self):
        log = ActionLog()
        record(log, actor=1)
        record(log, actor=7)
        out = log.select(predicate=lambda r: r.actor == 7)
        assert len(out) == 1

    def test_daily_count(self):
        log = ActionLog()
        record(log, tick=0)
        record(log, tick=10)
        record(log, tick=25)
        record(log, tick=3, status=ActionStatus.BLOCKED)
        assert log.daily_count(1, 0) == 2
        assert log.daily_count(1, 1) == 1
        assert log.daily_count(1, 0, ActionType.FOLLOW) == 0

    def test_actors_iterates_all(self):
        log = ActionLog()
        record(log, actor=1)
        record(log, actor=2)
        assert set(log.actors()) == {1, 2}

    def test_mark_removed_twice_rejected(self):
        log = ActionLog()
        r = record(log)
        r.mark_removed(24)
        with pytest.raises(ValueError):
            r.mark_removed(25)
