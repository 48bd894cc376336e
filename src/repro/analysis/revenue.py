"""Revenue estimation (paper Section 5.2, Tables 8-10).

These estimators consume only what the paper's authors could observe —
attributed platform activity and the services' published price lists —
never the services' internal ledgers. The simulation *also* has the
ground-truth ledgers, so benchmarks report estimator error alongside the
estimates, a validation the paper itself could not perform.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.aas.ads import HIGH_CPM_CENTS, LOW_CPM_CENTS
from repro.aas.pricing import HublaagramCatalog, SubscriptionPricing
from repro.detection.classifier import AttributedActivity
from repro.detection.customers import CustomerBaseAnalytics
from repro.platform.models import AccountId, ActionStatus, ActionType


@dataclass
class ReciprocityRevenueEstimate:
    """A Table 8 row."""

    service: str
    paying_accounts: int
    monthly_revenue_cents: int
    fee_description: str


def estimate_reciprocity_revenue(
    analytics: CustomerBaseAnalytics,
    pricing: SubscriptionPricing,
    window_days: int,
) -> ReciprocityRevenueEstimate:
    """Paid-day accounting for a reciprocity AAS (Section 5.2).

    An account is paid once it is active longer than the trial period;
    its paid days are converted to money at the minimum paid duration.
    The window total is normalized to a 30-day month.

    Active days are *calendar* days touched by attributed activity, and
    an N-day trial started mid-day touches N+1 calendar days — so the
    free allowance is ``trial_days_actual + 1`` (the same correction the
    long-term customer split applies).
    """
    if window_days <= 0:
        raise ValueError("window must be positive")
    trial_days = pricing.trial_days_actual + 1
    paying = 0
    total_cents = 0
    for activity in analytics.customers.values():
        active_days = len(activity.active_days)
        if active_days <= trial_days:
            continue
        paying += 1
        paid_days = active_days - trial_days
        periods = math.ceil(paid_days / pricing.min_paid_days)
        total_cents += periods * pricing.cost_cents
    monthly = int(round(total_cents * 30.0 / window_days))
    per_period = pricing.cost_cents / 100.0
    return ReciprocityRevenueEstimate(
        service=analytics.service,
        paying_accounts=paying,
        monthly_revenue_cents=monthly,
        fee_description=f"${per_period:.2f}/{pricing.min_paid_days}d",
    )


@dataclass
class HublaagramRevenueEstimate:
    """The Table 9 breakdown."""

    no_outbound_accounts: int = 0
    no_outbound_cents: int = 0
    one_time_like_buyers: int = 0
    one_time_like_cents: int = 0
    monthly_tier_accounts: dict[str, int] = field(default_factory=dict)
    monthly_tier_cents: dict[str, int] = field(default_factory=dict)
    ad_impressions: int = 0
    ad_cents_low: int = 0
    ad_cents_high: int = 0

    @property
    def monthly_total_low_cents(self) -> int:
        return self.one_time_like_cents + sum(self.monthly_tier_cents.values()) + self.ad_cents_low

    @property
    def monthly_total_high_cents(self) -> int:
        return self.one_time_like_cents + sum(self.monthly_tier_cents.values()) + self.ad_cents_high


def _likes_by_account(
    activity: AttributedActivity,
) -> tuple[dict[AccountId, dict[int, dict[int, int]]], dict[AccountId, dict[int, dict[int, int]]]]:
    """Attributed inbound likes grouped two ways.

    Returns ``(hourly, daily)`` where hourly[account][media][tick] and
    daily[account][media][day] count service-delivered likes.
    """
    hourly: dict[AccountId, dict[int, dict[int, int]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(int))
    )
    daily: dict[AccountId, dict[int, dict[int, int]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(int))
    )
    for record in activity.records:
        if record.action_type is not ActionType.LIKE:
            continue
        if record.status is ActionStatus.BLOCKED:
            continue
        if record.target_account is None or record.target_media is None:
            continue
        hourly[record.target_account][record.target_media][record.tick] += 1
        daily[record.target_account][record.target_media][record.day] += 1
    return hourly, daily


def _median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def estimate_hublaagram_revenue(
    activity: AttributedActivity,
    catalog: HublaagramCatalog,
    free_like_ceiling_per_hour: int,
    likes_per_free_request: int,
    follows_per_free_request: int,
    window_days: int,
) -> HublaagramRevenueEstimate:
    """Hublaagram's accounting model (Section 5.2, Table 9).

    * no-outbound fee: accounts that only receive, never source;
    * paid like customers: ever exceeded the free hourly ceiling on a photo;
    * one-time packages: photos beyond the smallest package size on
      accounts whose daily median likes/photo sits below the lowest tier;
    * monthly tiers: paid accounts mapped by median likes/photo;
    * ads: free-action volume divided into request-sized chunks, one
      conservative impression each, priced at the CPM band.
    """
    estimate = HublaagramRevenueEstimate()
    # --- one-time no-outbound fee --------------------------------------
    inbound_only = activity.inbound_only_accounts
    estimate.no_outbound_accounts = len(inbound_only)
    estimate.no_outbound_cents = len(inbound_only) * catalog.no_collusion_fee_cents

    hourly, daily = _likes_by_account(activity)

    # --- classify paid like customers ----------------------------------
    paid_accounts: set[AccountId] = set()
    for account, media_map in hourly.items():
        for counts in media_map.values():
            if any(n > free_like_ceiling_per_hour for n in counts.values()):
                paid_accounts.add(account)
                break

    smallest_package = min(catalog.one_time_packages, key=lambda p: p.likes)
    lowest_tier_bound = catalog.monthly_tiers[0].likes_low

    one_time_photos = 0
    tier_accounts: dict[str, int] = defaultdict(int)
    tier_cents: dict[str, int] = defaultdict(int)
    for account in paid_accounts:
        media_daily = daily[account]
        photo_totals = [sum(day_counts.values()) for day_counts in media_daily.values()]
        daily_values = [n for day_counts in media_daily.values() for n in day_counts.values()]
        median_daily = _median(daily_values) if daily_values else 0.0
        median_per_photo = _median([float(t) for t in photo_totals]) if photo_totals else 0.0
        if median_daily < lowest_tier_bound:
            # One-time buyer candidate: single photos past the package size.
            big_photos = sum(1 for total in photo_totals if total > smallest_package.likes)
            if big_photos:
                one_time_photos += big_photos
                continue
        tier = catalog.tier_for(median_per_photo)
        if tier is None and median_per_photo >= catalog.monthly_tiers[-1].likes_high:
            tier = catalog.monthly_tiers[-1]
        if tier is None and median_per_photo >= lowest_tier_bound:
            tier = catalog.monthly_tiers[0]
        if tier is not None:
            label = f"{tier.likes_low}-{tier.likes_high}"
            tier_accounts[label] += 1
            tier_cents[label] += tier.cost_cents
    estimate.one_time_like_buyers = one_time_photos
    estimate.one_time_like_cents = one_time_photos * smallest_package.cost_cents
    estimate.monthly_tier_accounts = dict(tier_accounts)
    estimate.monthly_tier_cents = dict(tier_cents)

    # --- advertisements -------------------------------------------------
    free_likes = 0
    free_follows = 0
    for record in activity.records:
        if record.status is ActionStatus.BLOCKED or record.target_account is None:
            continue
        if record.target_account in paid_accounts or record.target_account in inbound_only:
            continue
        if record.action_type is ActionType.LIKE:
            free_likes += 1
        elif record.action_type is ActionType.FOLLOW:
            free_follows += 1
    impressions = free_likes // max(likes_per_free_request, 1) + free_follows // max(
        follows_per_free_request, 1
    )
    estimate.ad_impressions = impressions
    estimate.ad_cents_low = int(round(impressions * LOW_CPM_CENTS / 1000.0))
    estimate.ad_cents_high = int(round(impressions * HIGH_CPM_CENTS / 1000.0))
    del window_days  # monthly tiers and fees are already month-denominated
    return estimate
