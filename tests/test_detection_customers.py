"""Tests for customer-base analytics (Tables 6-7 machinery)."""

import pytest

from repro.aas.base import ServiceType
from repro.detection.customers import CustomerActivity, CustomerBaseAnalytics
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord
from tests.oracles.classifier import logged_activity


def make_record(action_id, actor, target, day, action_type=ActionType.FOLLOW):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=day * 24,
        endpoint=ClientEndpoint(action_id, 100, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=ActionStatus.DELIVERED,
        target_account=target,
    )


def activity_for(records, service_type=ServiceType.RECIPROCITY_ABUSE):
    return logged_activity("X", service_type, records)


class TestCustomerActivity:
    def test_max_consecutive(self):
        activity = CustomerActivity(account_id=1, active_days={1, 2, 3, 7, 8})
        assert activity.max_consecutive_days() == 3
        assert activity.first_day == 1
        assert activity.last_day == 8

    def test_single_day(self):
        assert CustomerActivity(1, {5}).max_consecutive_days() == 1

    def test_empty(self):
        assert CustomerActivity(1, set()).max_consecutive_days() == 0


class TestCustomerBaseAnalytics:
    def _records_for(self, actor, days):
        return [make_record(i + actor * 1000, actor, 999, d) for i, d in enumerate(days)]

    def test_long_term_split(self):
        records = self._records_for(1, range(10)) + self._records_for(2, range(3))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.total_customers() == 2
        assert analytics.long_term_customers() == {1}

    def test_long_term_strictly_greater(self):
        """Exactly 7 consecutive days (the trial) is still short-term."""
        records = self._records_for(1, range(7))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.long_term_customers() == set()

    def test_gap_breaks_streak(self):
        days = [0, 1, 2, 3, 5, 6, 7, 8]  # two runs of 4
        records = self._records_for(1, days)
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.long_term_customers() == set()

    def test_action_share(self):
        records = self._records_for(1, range(10)) + self._records_for(2, range(2))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.long_term_action_share() == pytest.approx(10 / 12)

    def test_collusion_counts_recipients(self):
        records = [make_record(i, actor=1, target=50, day=d) for i, d in enumerate(range(6))]
        analytics = CustomerBaseAnalytics(
            activity_for(records, ServiceType.COLLUSION_NETWORK), long_term_days=4
        )
        assert 50 in analytics.customers
        assert analytics.long_term_customers() == {1, 50}

    def test_reciprocity_ignores_targets(self):
        records = [make_record(0, actor=1, target=50, day=0)]
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert 50 not in analytics.customers

    def test_daily_active_long_term(self):
        records = self._records_for(1, range(9))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        series = analytics.daily_active_long_term()
        assert series == {d: 1 for d in range(9)}

    def test_conversion_rate(self):
        # one converter (10 consecutive days from day 0), one dabbler
        records = self._records_for(1, range(10)) + self._records_for(2, [0, 1])
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.conversion_rate(cohort_start_day=0, cohort_days=30) == 0.5

    def test_conversion_rate_empty_cohort(self):
        records = self._records_for(1, range(10))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        assert analytics.conversion_rate(cohort_start_day=100) == 0.0

    def test_birth_death_rates_growth_sign(self):
        # an early cohort that dies plus a late cohort that persists
        records = []
        for actor in range(1, 4):
            records += self._records_for(actor, range(0, 10))
        for actor in range(4, 10):
            records += self._records_for(actor, range(30, 45))
        analytics = CustomerBaseAnalytics(activity_for(records), long_term_days=7)
        rates = analytics.birth_death_rates(window_days=7)
        assert rates["birth_rate"] > 0
        assert rates["death_rate"] > 0

    def test_invalid_long_term_days(self):
        with pytest.raises(ValueError):
            CustomerBaseAnalytics(activity_for([]), long_term_days=0)
