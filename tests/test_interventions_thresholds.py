"""Tests for per-ASN activity thresholds (Section 6.2)."""

import pytest

from repro.interventions.thresholds import (
    CountSubject,
    ThresholdEntry,
    ThresholdTable,
    compute_thresholds,
)
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord


def make_record(action_id, actor, asn, tick, action_type=ActionType.FOLLOW,
                variant="stock", target=999, status=ActionStatus.DELIVERED):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=tick,
        endpoint=ClientEndpoint(action_id, asn, DeviceFingerprint("android", variant)),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )


def benign_user_records(asn, users, per_day, days_):
    """Each user issues per_day follows per day from the ASN."""
    records = []
    i = 0
    for user in range(users):
        for day in range(days_):
            for k in range(per_day):
                records.append(make_record(i, 10_000 + user, asn, day * 24 + k % 24))
                i += 1
    return records


class TestThresholdTable:
    def test_add_get(self):
        table = ThresholdTable()
        entry = ThresholdEntry(1, ActionType.LIKE, 5.0, CountSubject.ACTOR, True)
        table.add(entry)
        assert table.get(1, ActionType.LIKE) is entry
        assert table.get(1, ActionType.FOLLOW) is None
        assert list(table.entries) == [(1, ActionType.LIKE)]

    def test_duplicate_rejected(self):
        table = ThresholdTable()
        entry = ThresholdEntry(1, ActionType.LIKE, 5.0, CountSubject.ACTOR, True)
        table.add(entry)
        with pytest.raises(ValueError):
            table.add(entry)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            ThresholdEntry(1, ActionType.LIKE, -1.0, CountSubject.ACTOR, True)


class TestComputeThresholds:
    def test_mixed_asn_uses_benign_p99(self):
        asn = 77
        benign = benign_user_records(asn, users=50, per_day=5, days_=3)
        aas = [make_record(10**6 + i, 1, asn, i % 24, variant="aas-x") for i in range(200)]
        table = compute_thresholds(aas, benign, {asn: CountSubject.ACTOR})
        entry = table.get(asn, ActionType.FOLLOW)
        assert entry is not None
        assert entry.mixed_asn
        assert entry.daily_limit == pytest.approx(5.0)  # all benign users do 5/day

    def test_pure_asn_uses_aas_p25(self):
        asn = 88
        aas = []
        i = 0
        # three AAS accounts at 10/40/100 follows per day
        for actor, per_day in ((1, 10), (2, 40), (3, 100)):
            for k in range(per_day):
                aas.append(make_record(i, actor, asn, k % 24, variant="aas-x"))
                i += 1
        table = compute_thresholds(aas, [], {asn: CountSubject.ACTOR})
        entry = table.get(asn, ActionType.FOLLOW)
        assert not entry.mixed_asn
        assert 10 <= entry.daily_limit <= 40  # 25th percentile of {10,40,100}

    def test_target_subject_counts_recipients(self):
        asn = 99
        aas = []
        # 30 inbound likes to account 500, 4 to account 501
        for i in range(30):
            aas.append(make_record(i, actor=i, asn=asn, tick=i % 24,
                                   action_type=ActionType.LIKE, variant="aas-c", target=500))
        for i in range(4):
            aas.append(make_record(100 + i, actor=i, asn=asn, tick=i,
                                   action_type=ActionType.LIKE, variant="aas-c", target=501))
        table = compute_thresholds(aas, [], {asn: CountSubject.TARGET})
        entry = table.get(asn, ActionType.LIKE)
        assert entry.subject is CountSubject.TARGET
        assert 4 <= entry.daily_limit <= 30

    def test_no_data_means_no_entry(self):
        table = compute_thresholds([], [], {5: CountSubject.ACTOR})
        assert len(table) == 0

    def test_blocked_records_ignored_in_counting(self):
        asn = 11
        aas = [
            make_record(i, 1, asn, i % 24, variant="aas-x", status=ActionStatus.BLOCKED)
            for i in range(50)
        ]
        table = compute_thresholds(aas, [], {asn: CountSubject.ACTOR})
        assert table.get(asn, ActionType.FOLLOW) is None

    def test_benign_from_other_asns_irrelevant(self):
        asn = 22
        benign_elsewhere = benign_user_records(33, users=10, per_day=3, days_=2)
        aas = [make_record(10**6 + i, 1, asn, i % 24, variant="aas-x") for i in range(40)]
        table = compute_thresholds(aas, benign_elsewhere, {asn: CountSubject.ACTOR})
        entry = table.get(asn, ActionType.FOLLOW)
        assert not entry.mixed_asn  # the other ASN's benign traffic does not mix in
