"""Tests for the threshold+bin policy and the post-hoc metrics."""

import pytest

from repro.interventions.bins import BinAssignment, account_bin
from repro.interventions.metrics import (
    eligible_flags,
    eligible_proportion_series,
    eligible_share_by_group,
    median_daily_actions_series,
)
from repro.interventions.policy import ThresholdBinPolicy
from repro.interventions.thresholds import CountSubject, ThresholdEntry, ThresholdTable
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord

ASN = 500


def table(limit=3.0, subject=CountSubject.ACTOR, action_type=ActionType.FOLLOW):
    out = ThresholdTable()
    out.add(ThresholdEntry(ASN, action_type, limit, subject, mixed_asn=True))
    return out


def context(actor, action_type=ActionType.FOLLOW, tick=0, target=None, asn=ASN):
    return ActionContext(
        actor=actor,
        action_type=action_type,
        endpoint=ClientEndpoint(1, asn, DeviceFingerprint("android", "aas-x")),
        tick=tick,
        target_account=target,
    )


def first_account_in_bin(bin_index):
    for account in range(1, 10_000):
        if account_bin(account) == bin_index:
            return account
    raise AssertionError("no account found")


class TestThresholdBinPolicy:
    def test_allows_under_threshold(self):
        policy = ThresholdBinPolicy(table(limit=3), BinAssignment.narrow())
        actor = first_account_in_bin(1)  # block bin
        for _ in range(3):
            assert policy.decide(context(actor)) is CountermeasureDecision.ALLOW

    def test_blocks_above_threshold_for_block_bin(self):
        policy = ThresholdBinPolicy(table(limit=3), BinAssignment.narrow())
        actor = first_account_in_bin(1)
        for _ in range(3):
            policy.decide(context(actor))
        assert policy.decide(context(actor)) is CountermeasureDecision.BLOCK

    def test_delays_for_delay_bin(self):
        policy = ThresholdBinPolicy(table(limit=1), BinAssignment.narrow())
        actor = first_account_in_bin(2)
        policy.decide(context(actor))
        assert policy.decide(context(actor)) is CountermeasureDecision.DELAY_REMOVE

    def test_control_bin_never_touched(self):
        policy = ThresholdBinPolicy(table(limit=1), BinAssignment.narrow())
        actor = first_account_in_bin(0)
        for _ in range(50):
            assert policy.decide(context(actor)) is CountermeasureDecision.ALLOW

    def test_delay_only_applies_to_follows(self):
        """Paper: delayed removal was not possible on likes."""
        policy = ThresholdBinPolicy(
            table(limit=1, action_type=ActionType.LIKE), BinAssignment.narrow()
        )
        actor = first_account_in_bin(2)  # delay bin
        policy.decide(context(actor, ActionType.LIKE))
        assert policy.decide(context(actor, ActionType.LIKE)) is CountermeasureDecision.ALLOW

    def test_blocked_attempts_consume_quota(self):
        policy = ThresholdBinPolicy(table(limit=2), BinAssignment.narrow())
        actor = first_account_in_bin(1)
        decisions = [policy.decide(context(actor)) for _ in range(5)]
        assert decisions.count(CountermeasureDecision.BLOCK) == 3

    def test_daily_counter_resets(self):
        policy = ThresholdBinPolicy(table(limit=1), BinAssignment.narrow())
        actor = first_account_in_bin(1)
        policy.decide(context(actor, tick=0))
        assert policy.decide(context(actor, tick=1)) is CountermeasureDecision.BLOCK
        assert policy.decide(context(actor, tick=24)) is CountermeasureDecision.ALLOW

    def test_unthresholded_asn_allowed(self):
        policy = ThresholdBinPolicy(table(limit=1), BinAssignment.narrow())
        actor = first_account_in_bin(1)
        for _ in range(20):
            assert policy.decide(context(actor, asn=999)) is CountermeasureDecision.ALLOW

    def test_target_subject(self):
        policy = ThresholdBinPolicy(
            table(limit=1, subject=CountSubject.TARGET, action_type=ActionType.LIKE),
            BinAssignment.narrow(),
        )
        recipient = first_account_in_bin(1)
        policy.decide(context(actor=9999, action_type=ActionType.LIKE, target=recipient))
        verdict = policy.decide(context(actor=8888, action_type=ActionType.LIKE, target=recipient))
        assert verdict is CountermeasureDecision.BLOCK

    def test_set_assignment_preserves_counters(self):
        policy = ThresholdBinPolicy(table(limit=1), BinAssignment.broad_delay())
        actor = first_account_in_bin(3)
        policy.decide(context(actor))
        policy.set_assignment(BinAssignment.broad_block())
        assert policy.decide(context(actor)) is CountermeasureDecision.BLOCK


def make_record(action_id, actor, day, action_type=ActionType.FOLLOW, asn=ASN,
                status=ActionStatus.DELIVERED, target=777):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=day * 24 + (action_id % 24),
        endpoint=ClientEndpoint(action_id, asn, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )


class TestMetrics:
    def test_eligible_flags_replicates_counting(self):
        thresholds = table(limit=2)
        records = [make_record(i, actor=1, day=0) for i in range(5)]
        flagged = eligible_flags(records, thresholds)
        assert [e for _, _, e in flagged] == [False, False, True, True, True]

    def test_eligible_flags_skips_uncovered_asn(self):
        thresholds = table(limit=2)
        records = [make_record(0, actor=1, day=0, asn=12345)]
        assert eligible_flags(records, thresholds) == []

    def test_median_daily_series_by_group(self):
        assignment = BinAssignment.narrow()
        blocked = first_account_in_bin(1)
        control = first_account_in_bin(0)
        records = []
        i = 0
        for day in range(3):
            for _ in range(10):
                records.append(make_record(i, blocked, day)); i += 1
            for _ in range(4):
                records.append(make_record(i, control, day)); i += 1
        series = median_daily_actions_series(
            records, assignment, ActionType.FOLLOW, CountSubject.ACTOR, 0, 3
        )
        assert series["block"] == {0: 10, 1: 10, 2: 10}
        assert series["control"] == {0: 4, 1: 4, 2: 4}

    def test_eligible_proportion_series(self):
        thresholds = table(limit=2)
        records = [make_record(i, actor=1, day=0) for i in range(4)]
        series = eligible_proportion_series(records, thresholds, ActionType.FOLLOW, 0, 1)
        assert series == {0: 0.5}  # 2 of 4 above the limit

    def test_eligible_share_by_group(self):
        thresholds = table(limit=0)  # everything eligible
        assignment = BinAssignment.broad_block()
        control = first_account_in_bin(0)
        treated = first_account_in_bin(4)
        records = []
        i = 0
        for _ in range(1):
            records.append(make_record(i, control, 0)); i += 1
        for _ in range(9):
            records.append(make_record(i, treated, 0)); i += 1
        shares = eligible_share_by_group(
            records, thresholds, assignment, ActionType.FOLLOW, 0, 7
        )
        assert shares[0]["control"] == pytest.approx(0.1)
        assert shares[0]["block"] == pytest.approx(0.9)
