"""Tests for the countermeasure engine."""

import itertools

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.clock import SimClock
from repro.platform.countermeasures import (
    ActionContext,
    CountermeasureDecision,
    CountermeasureEngine,
)
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord


def make_context(actor=1, action_type=ActionType.FOLLOW, tick=0):
    return ActionContext(
        actor=actor,
        action_type=action_type,
        endpoint=ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android")),
        tick=tick,
    )


class _FixedPolicy:
    def __init__(self, decision):
        self.decision = decision

    def decide(self, context):
        return self.decision


class TestCountermeasureEngine:
    def test_default_allows(self):
        engine = CountermeasureEngine(SimClock())
        assert engine.decide(make_context()) is CountermeasureDecision.ALLOW

    def test_strictest_policy_wins(self):
        engine = CountermeasureEngine(SimClock())
        engine.add_policy(_FixedPolicy(CountermeasureDecision.DELAY_REMOVE))
        engine.add_policy(_FixedPolicy(CountermeasureDecision.BLOCK))
        engine.add_policy(_FixedPolicy(CountermeasureDecision.ALLOW))
        assert engine.decide(make_context()) is CountermeasureDecision.BLOCK

    def test_remove_policy(self):
        engine = CountermeasureEngine(SimClock())
        policy = _FixedPolicy(CountermeasureDecision.BLOCK)
        engine.add_policy(policy)
        engine.remove_policy(policy)
        assert engine.decide(make_context()) is CountermeasureDecision.ALLOW

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            CountermeasureEngine(SimClock(), removal_delay_ticks=0)

    def test_scheduled_removal_fires_after_delay(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock, removal_delay_ticks=24)
        record = ActionRecord(
            action_id=0,
            action_type=ActionType.FOLLOW,
            actor=1,
            tick=0,
            endpoint=ClientEndpoint(1, 1, DeviceFingerprint("android")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=ActionStatus.DELIVERED,
            target_account=2,
        )
        undone = []
        engine.schedule_removal(0, [record].__getitem__, lambda r: undone.append(r) or True)
        clock.advance(23)
        assert record.status is ActionStatus.DELIVERED
        clock.advance(1)
        assert record.status is ActionStatus.REMOVED
        assert record.removed_at == 24
        assert undone == [record]

    def test_removal_skipped_if_undo_reports_nothing(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock, removal_delay_ticks=10)
        record = ActionRecord(
            action_id=0,
            action_type=ActionType.FOLLOW,
            actor=1,
            tick=0,
            endpoint=ClientEndpoint(1, 1, DeviceFingerprint("android")),
            api=ApiSurface.PRIVATE_MOBILE,
            status=ActionStatus.DELIVERED,
            target_account=2,
        )
        engine.schedule_removal(0, [record].__getitem__, lambda r: False)
        clock.advance(20)
        assert record.status is ActionStatus.DELIVERED  # actor undid it first

    def test_counters(self):
        clock = SimClock()
        engine = CountermeasureEngine(clock)
        engine.note_block()
        assert engine.blocked_count == 1


class _CountingPolicy:
    def __init__(self, decision):
        self.decision = decision
        self.calls = 0

    def decide(self, context):
        self.calls += 1
        return self.decision


class TestDecisionPath:
    @pytest.mark.parametrize(
        "verdicts", list(itertools.product(CountermeasureDecision, repeat=3))
    )
    def test_strictest_of_three_and_every_policy_asked(self, verdicts):
        engine = CountermeasureEngine(SimClock())
        policies = [_CountingPolicy(v) for v in verdicts]
        for policy in policies:
            engine.add_policy(policy)
        strictest = max(verdicts, key=lambda d: d.value)
        assert engine.decide(make_context()) is strictest
        # policies count attempts, so a BLOCK never short-circuits
        assert [p.calls for p in policies] == [1, 1, 1]

    def test_context_is_immutable(self):
        context = make_context()
        with pytest.raises(AttributeError):
            context.actor = 2
        with pytest.raises(AttributeError):
            context.target_account = 3

    def test_context_builds_from_keywords_with_defaults(self):
        endpoint = ClientEndpoint(1, 7, DeviceFingerprint("android"))
        context = ActionContext(
            actor=1, action_type=ActionType.LIKE, endpoint=endpoint, tick=5, target_media=9
        )
        assert (context.actor, context.action_type, context.endpoint, context.tick) == (
            1,
            ActionType.LIKE,
            endpoint,
            5,
        )
        assert context.target_account is None and context.target_media == 9
        assert context == ActionContext(1, ActionType.LIKE, endpoint, 5, None, 9)

    def test_decisions_hash_by_identity(self):
        # C-level identity hashing, like ActionType's: policies key their
        # per-decision tallies on the members
        for enum_type in (CountermeasureDecision, ActionType):
            assert enum_type.__hash__ is object.__hash__
            for member in enum_type:
                assert hash(member) == object.__hash__(member)
        tally = {CountermeasureDecision.BLOCK: 1}
        assert tally[CountermeasureDecision.BLOCK] == 1
