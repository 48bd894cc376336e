"""Tests for AAS pricing structures (paper Tables 2-4)."""

import pytest

from repro.aas.pricing import (
    BOOSTGRAM_PRICING,
    FollowersgratisCatalog,
    HublaagramCatalog,
    INSTALEX_PRICING,
    INSTAZOOD_PRICING,
    SubscriptionPricing,
    dollars,
)


class TestDollars:
    def test_conversion(self):
        assert dollars(3.15) == 315
        assert dollars(99) == 9900
        assert dollars(0.34) == 34


class TestSubscriptionPricing:
    def test_table2_values(self):
        assert INSTALEX_PRICING.trial_days_advertised == 7
        assert INSTALEX_PRICING.min_paid_days == 7
        assert INSTALEX_PRICING.cost_cents == 315
        assert INSTAZOOD_PRICING.min_paid_days == 1
        assert INSTAZOOD_PRICING.cost_cents == 34
        assert BOOSTGRAM_PRICING.min_paid_days == 30
        assert BOOSTGRAM_PRICING.cost_cents == 9900

    def test_instazood_trial_quirk(self):
        """Advertises 3 days, delivers 7 (paper Section 4.2)."""
        assert INSTAZOOD_PRICING.trial_days_advertised == 3
        assert INSTAZOOD_PRICING.trial_days_actual == 7

    def test_actual_defaults_to_advertised(self):
        pricing = SubscriptionPricing(trial_days_advertised=5, min_paid_days=2, cost_cents=100)
        assert pricing.trial_days_actual == 5

    def test_tick_conversions(self):
        assert INSTALEX_PRICING.trial_ticks == 7 * 24
        assert BOOSTGRAM_PRICING.period_ticks == 30 * 24

    def test_validation(self):
        with pytest.raises(ValueError):
            SubscriptionPricing(trial_days_advertised=-1, min_paid_days=1, cost_cents=1)
        with pytest.raises(ValueError):
            SubscriptionPricing(trial_days_advertised=1, min_paid_days=0, cost_cents=1)
        with pytest.raises(ValueError):
            SubscriptionPricing(trial_days_advertised=1, min_paid_days=1, cost_cents=0)


class TestHublaagramCatalog:
    def test_table3_values(self):
        catalog = HublaagramCatalog()
        assert catalog.no_collusion_fee_cents == 1500
        assert [p.likes for p in catalog.one_time_packages] == [2000, 5000, 10000]
        assert [t.cost_cents for t in catalog.monthly_tiers] == [2000, 3000, 4000, 7000]

    def test_tier_lookup(self):
        catalog = HublaagramCatalog()
        assert catalog.tier_for(300).likes_low == 250
        assert catalog.tier_for(999).likes_low == 500
        assert catalog.tier_for(100) is None
        assert catalog.tier_for(5000) is None  # beyond top tier

    def test_tier_boundaries_half_open(self):
        catalog = HublaagramCatalog()
        assert catalog.tier_for(500).likes_low == 500  # low inclusive
        assert catalog.tier_for(499.9).likes_low == 250

    def test_scaled_preserves_prices(self):
        scaled = HublaagramCatalog().scaled(0.1)
        assert scaled.no_collusion_fee_cents == 1500
        assert [p.cost_cents for p in scaled.one_time_packages] == [1000, 2000, 2500]

    def test_scaled_shrinks_quantities(self):
        scaled = HublaagramCatalog().scaled(0.1)
        assert [p.likes for p in scaled.one_time_packages] == [200, 500, 1000]
        assert scaled.monthly_tiers[0].likes_low == 25
        assert scaled.monthly_tiers[0].likes_high == 50

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            HublaagramCatalog().scaled(0)


class TestFollowersgratisCatalog:
    def test_table4_values(self):
        options = FollowersgratisCatalog().options
        assert len(options) == 4
        assert options[0].follows == 500
        assert options[0].cost_cents == 315
        assert options[1].cost_cents == 525
        assert options[2].duration_days == 0  # instant
