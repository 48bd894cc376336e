"""Tests for the revenue estimation models (Tables 8-9)."""

import pytest

from repro.aas.base import ServiceType
from repro.aas.pricing import BOOSTGRAM_PRICING, HublaagramCatalog, INSTAZOOD_PRICING
from repro.analysis.revenue import (
    estimate_hublaagram_revenue,
    estimate_reciprocity_revenue,
)
from repro.detection.classifier import AttributedActivity
from repro.detection.customers import CustomerBaseAnalytics
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord


def make_record(action_id, actor, target, tick, action_type=ActionType.FOLLOW, media=None):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=tick,
        endpoint=ClientEndpoint(action_id, 100, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=ActionStatus.DELIVERED,
        target_account=target,
        target_media=media,
    )


def reciprocity_analytics(active_days_by_actor):
    records = []
    i = 0
    for actor, days_ in active_days_by_actor.items():
        for d in days_:
            records.append(make_record(i, actor, 999, d * 24))
            i += 1
    activity = AttributedActivity("R", ServiceType.RECIPROCITY_ABUSE, records)
    return CustomerBaseAnalytics(activity, long_term_days=7)


class TestReciprocityRevenue:
    def test_trial_only_customers_are_free(self):
        # a 7-day trial spans at most 8 calendar days
        analytics = reciprocity_analytics({1: range(8)})
        estimate = estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=30)
        assert estimate.paying_accounts == 0
        assert estimate.monthly_revenue_cents == 0

    def test_paid_days_convert_at_min_duration(self):
        # 18 calendar days - (7-day trial + 1 span day) = 10 paid days
        analytics = reciprocity_analytics({1: range(18)})
        estimate = estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=30)
        assert estimate.paying_accounts == 1
        assert estimate.monthly_revenue_cents == 10 * 34

    def test_periods_are_ceiled(self):
        # Boostgram: 3-day trial (4 calendar), 30-day min period; 10
        # active days -> 6 paid days -> ceil(6/30) = 1 period of $99
        analytics = reciprocity_analytics({1: range(10)})
        estimate = estimate_reciprocity_revenue(analytics, BOOSTGRAM_PRICING, window_days=30)
        assert estimate.monthly_revenue_cents == 9900

    def test_window_normalization(self):
        analytics = reciprocity_analytics({1: range(18)})
        month = estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=30)
        double = estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=60)
        assert double.monthly_revenue_cents == pytest.approx(month.monthly_revenue_cents / 2, abs=1)

    def test_multiple_customers_sum(self):
        analytics = reciprocity_analytics({1: range(18), 2: range(13), 3: range(3)})
        estimate = estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=30)
        assert estimate.paying_accounts == 2
        assert estimate.monthly_revenue_cents == (10 + 5) * 34

    def test_invalid_window(self):
        analytics = reciprocity_analytics({})
        with pytest.raises(ValueError):
            estimate_reciprocity_revenue(analytics, INSTAZOOD_PRICING, window_days=0)


class TestHublaagramRevenue:
    CATALOG = HublaagramCatalog().scaled(0.1)  # packages 200/500/1000, tiers from 25

    def _estimate(self, records):
        activity = AttributedActivity("H", ServiceType.COLLUSION_NETWORK, records)
        return estimate_hublaagram_revenue(
            activity,
            self.CATALOG,
            free_like_ceiling_per_hour=16,
            likes_per_free_request=8,
            follows_per_free_request=4,
            window_days=30,
        )

    def test_no_outbound_accounts_counted(self):
        # account 50 only receives; accounts 1..3 are sources
        records = [make_record(i, actor=1 + (i % 3), target=50, tick=i,
                               action_type=ActionType.LIKE, media=5) for i in range(10)]
        estimate = self._estimate(records)
        assert estimate.no_outbound_accounts == 1
        assert estimate.no_outbound_cents == 1500

    def test_free_volume_below_ceiling_is_unpaid(self):
        records = []
        for hour in range(10):
            for j in range(10):  # 10 likes/hour < 16 ceiling
                records.append(
                    make_record(len(records), actor=j + 1, target=50, tick=hour,
                                action_type=ActionType.LIKE, media=5)
                )
        # free-tier users are also collusion sources (that is the deal);
        # without outbound the estimator counts them as no-outbound payers
        records.append(make_record(len(records), actor=50, target=1, tick=0,
                                   action_type=ActionType.LIKE, media=9))
        estimate = self._estimate(records)
        assert estimate.monthly_tier_accounts == {}
        assert estimate.one_time_like_buyers == 0
        assert estimate.ad_impressions > 0

    def test_burst_above_ceiling_maps_to_tier(self):
        records = []
        # 40 likes in one hour on one photo (> 16 ceiling), across 30 photos
        for photo in range(30):
            for j in range(40):
                records.append(
                    make_record(len(records), actor=j + 1, target=50, tick=photo,
                                action_type=ActionType.LIKE, media=photo)
                )
        estimate = self._estimate(records)
        # median likes/photo = 40 -> scaled tier 25-50 ($20)
        assert estimate.monthly_tier_accounts == {"25-50": 1}
        assert sum(estimate.monthly_tier_cents.values()) == 2000

    def test_one_time_package_detected(self):
        records = []
        # one photo with 250 likes (> scaled package 200) delivered fast...
        for j in range(250):
            records.append(
                make_record(len(records), actor=j + 1, target=50, tick=j // 45,
                            action_type=ActionType.LIKE, media=77)
            )
        # ...while the account's other photos idle at a low daily trickle,
        # keeping the daily median under the lowest tier bound
        for photo in range(80, 90):
            for day in range(3):
                records.append(
                    make_record(len(records), actor=photo, target=50, tick=24 * (day + 2),
                                action_type=ActionType.LIKE, media=photo)
                )
        estimate = self._estimate(records)
        assert estimate.one_time_like_buyers == 1
        assert estimate.one_time_like_cents == self.CATALOG.one_time_packages[0].cost_cents

    def test_ad_estimate_uses_request_chunks(self):
        records = []
        for i in range(80):  # 80 free likes = 10 requests of 8
            records.append(
                make_record(i, actor=50 + (i + 1) % 3, target=50 + i % 3, tick=i,
                            action_type=ActionType.LIKE, media=i % 4)
            )
        estimate = self._estimate(records)
        assert estimate.ad_impressions == 80 // 8
        assert estimate.ad_cents_low < estimate.ad_cents_high

    def test_totals_compose(self):
        records = [make_record(0, actor=1, target=50, tick=0,
                               action_type=ActionType.LIKE, media=1)]
        estimate = self._estimate(records)
        assert estimate.monthly_total_low_cents == (
            estimate.one_time_like_cents
            + sum(estimate.monthly_tier_cents.values())
            + estimate.ad_cents_low
        )
