"""Tests for geography shares, action mix, and target-bias sampling."""

from collections import Counter

import pytest

from repro.aas.base import ServiceType
from repro.analysis.actions_mix import action_mix
from repro.analysis.geography import country_shares
from repro.analysis.target_bias import (
    degree_cdfs,
    sample_receiving_accounts,
    sample_targeted_accounts,
)
from repro.detection.classifier import AttributedActivity
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform import InstagramPlatform
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util import derive_rng
from tests.oracles.actionlog import ActionRecord


def make_record(action_id, actor=1, target=2, action_type=ActionType.LIKE,
                status=ActionStatus.DELIVERED, tick=0):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=tick,
        endpoint=ClientEndpoint(action_id, 100, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )


class TestCountryShares:
    def test_threshold_and_other(self):
        counts = Counter({"USA": 50, "IDN": 30, "BRA": 3, "MEX": 2})
        shares = country_shares(counts, threshold=0.05)
        as_dict = dict(shares)
        assert as_dict["USA"] == pytest.approx(50 / 85)
        assert as_dict["OTHER"] == pytest.approx(5 / 85)
        assert shares[0][0] == "USA"  # sorted descending

    def test_explicit_other_label_folds_in(self):
        counts = Counter({"USA": 5, "OTHER": 5})
        shares = dict(country_shares(counts))
        assert shares["OTHER"] == pytest.approx(0.5)

    def test_empty(self):
        assert country_shares(Counter()) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            country_shares(Counter({"USA": 1}), threshold=0)


class TestActionMix:
    def test_normalized_shares(self):
        records = [
            make_record(0, action_type=ActionType.LIKE),
            make_record(1, action_type=ActionType.LIKE),
            make_record(2, action_type=ActionType.FOLLOW),
            make_record(3, action_type=ActionType.UNFOLLOW),
        ]
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, records)
        mix = action_mix(activity)
        assert mix[ActionType.LIKE] == 0.5
        assert mix[ActionType.FOLLOW] == 0.25
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_blocked_included_by_default(self):
        records = [
            make_record(0, action_type=ActionType.LIKE),
            make_record(1, action_type=ActionType.FOLLOW, status=ActionStatus.BLOCKED),
        ]
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, records)
        assert action_mix(activity)[ActionType.FOLLOW] == 0.5
        assert action_mix(activity, include_blocked=False)[ActionType.FOLLOW] == 0.0

    def test_empty_is_zero(self):
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, [])
        assert all(v == 0.0 for v in action_mix(activity).values())


class TestTargetSampling:
    def test_targets_exclude_customers(self):
        records = [
            make_record(0, actor=1, target=10),
            make_record(1, actor=1, target=1),  # self-ish target: a customer
            make_record(2, actor=2, target=11, action_type=ActionType.FOLLOW),
        ]
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, records)
        sample = sample_targeted_accounts(activity, derive_rng(1, "t"), 10)
        assert set(sample) == {10, 11}

    def test_blocked_targets_not_counted(self):
        records = [make_record(0, actor=1, target=10, status=ActionStatus.BLOCKED)]
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, records)
        assert sample_targeted_accounts(activity, derive_rng(1, "t"), 10) == []

    def test_sample_size_respected(self):
        records = [make_record(i, actor=1, target=100 + i) for i in range(50)]
        activity = AttributedActivity("X", ServiceType.RECIPROCITY_ABUSE, records)
        sample = sample_targeted_accounts(activity, derive_rng(1, "t"), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_receiving_baseline(self):
        log = ActionLog()
        for i in range(20):
            log.append(make_record(i, actor=1, target=100 + i, tick=i))
        sample = sample_receiving_accounts(log, derive_rng(1, "r"), 5, start_tick=0, end_tick=10)
        assert len(sample) == 5
        assert all(100 <= a < 110 for a in sample)


class TestDegreeCDFs:
    def test_cdfs_from_platform(self, endpoint):
        platform = InstagramPlatform()
        accounts = [platform.create_account(f"u{i}", "pw") for i in range(5)]
        session = platform.login("u0", "pw", endpoint)
        for other in accounts[1:]:
            platform.follow(session, other.account_id, endpoint)
        out_cdf, in_cdf = degree_cdfs(platform, [a.account_id for a in accounts])
        assert out_cdf.quantile(1.0) == 4  # u0 follows four others
        assert in_cdf.quantile(1.0) == 1

    def test_dead_accounts_skipped(self, endpoint):
        platform = InstagramPlatform()
        account = platform.create_account("u", "pw")
        platform.delete_account(account.account_id)
        with pytest.raises(ValueError):
            degree_cdfs(platform, [account.account_id])
