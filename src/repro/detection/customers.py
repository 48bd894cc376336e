"""Customer-base analytics (paper Section 5.1, Tables 6-7).

Given the records attributed to one service, reconstructs each
customer's activity span and derives the paper's population metrics:

* long-term vs short-term customers — long-term means active for more
  than ``long_term_days`` *consecutive* days (7 for reciprocity AASs,
  strictly longer than the trial; 4 for Hublaagram),
* share of actions from long-term customers,
* birth/death rates and daily active long-term counts (user stability),
* the long-term conversion rate for users new in a window,
* customer geolocation (most frequent login country, with service-ASN
  logins excluded per the paper's footnote that AAS logins are too
  infrequent to move the statistic).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.aas.base import ServiceType
from repro.detection.classifier import AttributedActivity
from repro.netsim.geo import GeoIP, LoginGeolocator
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId


@dataclass
class CustomerActivity:
    """One customer's observed engagement with a service."""

    account_id: AccountId
    active_days: set[int] = field(default_factory=set)
    action_count: int = 0

    @property
    def first_day(self) -> int:
        return min(self.active_days)

    @property
    def last_day(self) -> int:
        return max(self.active_days)

    def max_consecutive_days(self) -> int:
        """Length of the longest run of consecutive active days."""
        if not self.active_days:
            return 0
        days_sorted = sorted(self.active_days)
        best = run = 1
        for previous, current in zip(days_sorted, days_sorted[1:]):
            run = run + 1 if current == previous + 1 else 1
            best = max(best, run)
        return best


class CustomerBaseAnalytics:
    """Population metrics for one service's attributed activity."""

    def __init__(self, activity: AttributedActivity, long_term_days: int):
        if long_term_days < 1:
            raise ValueError("long_term_days must be positive")
        self.service = activity.service
        self.service_type = activity.service_type
        self.long_term_days = long_term_days
        self.customers: dict[AccountId, CustomerActivity] = {}
        self._build(activity)

    def _build(self, activity: AttributedActivity) -> None:
        collusion = self.service_type is ServiceType.COLLUSION_NETWORK
        for record in activity.records:
            participants = [record.actor]
            if collusion and record.target_account is not None:
                # For collusion networks, receiving service actions is
                # engagement too (it is what customers request).
                participants.append(record.target_account)
            for account in participants:
                entry = self.customers.setdefault(account, CustomerActivity(account_id=account))
                entry.active_days.add(record.day)
            self.customers[record.actor].action_count += 1

    # ------------------------------------------------------------------
    # Table 6
    # ------------------------------------------------------------------

    def total_customers(self) -> int:
        return len(self.customers)

    def long_term_customers(self) -> set[AccountId]:
        """Customers active more than ``long_term_days`` consecutive days."""
        return {
            account
            for account, activity in self.customers.items()
            if activity.max_consecutive_days() > self.long_term_days
        }

    def long_term_action_share(self) -> float:
        """Fraction of the service's actions issued by long-term customers."""
        long_term = self.long_term_customers()
        total = sum(a.action_count for a in self.customers.values())
        if total == 0:
            return 0.0
        from_long_term = sum(
            a.action_count for account, a in self.customers.items() if account in long_term
        )
        return from_long_term / total

    # ------------------------------------------------------------------
    # User stability (Section 5.1)
    # ------------------------------------------------------------------

    def daily_active_long_term(self) -> dict[int, int]:
        """Day -> number of long-term customers active that day."""
        long_term = self.long_term_customers()
        series: dict[int, int] = defaultdict(int)
        for account in long_term:
            for day in self.customers[account].active_days:
                series[day] += 1
        return dict(series)

    def birth_death_rates(self, window_days: int = 7) -> dict[str, float]:
        """Long-term births/deaths per window, averaged over the period.

        A "birth" is a long-term customer's first active day; a "death"
        is their last (as observed in the data, i.e. the paper's
        "appear to have dropped out").
        """
        long_term = self.long_term_customers()
        if not long_term:
            return {"birth_rate": 0.0, "death_rate": 0.0, "growth": 0.0}
        firsts = [self.customers[a].first_day for a in long_term]
        lasts = [self.customers[a].last_day for a in long_term]
        span_days = max(lasts) - min(firsts) + 1
        windows = max(span_days / window_days, 1.0)
        # Customers still active in the final window have not died.
        horizon = max(lasts) - window_days
        deaths = sum(1 for last in lasts if last <= horizon)
        births = sum(1 for first in firsts if first > min(firsts) + window_days)
        return {
            "birth_rate": births / windows,
            "death_rate": deaths / windows,
            "growth": (births - deaths) / max(len(long_term), 1),
        }

    def conversion_rate(self, cohort_start_day: int, cohort_days: int = 30) -> float:
        """Fraction of users *new* in the cohort window that become
        long-term within that window (Section 5.1's stable metric)."""
        cohort_end = cohort_start_day + cohort_days
        cohort = [
            activity
            for activity in self.customers.values()
            if cohort_start_day <= activity.first_day < cohort_end
        ]
        if not cohort:
            return 0.0
        converted = sum(
            1
            for activity in cohort
            if activity.max_consecutive_days() > self.long_term_days
            and activity.first_day + activity.max_consecutive_days() <= cohort_end + cohort_days
        )
        return converted / len(cohort)

    # ------------------------------------------------------------------
    # Geography (Table 7 / Figure 2)
    # ------------------------------------------------------------------

    def customer_countries(
        self,
        platform: InstagramPlatform,
        geoip: GeoIP,
        service_asns: set[int],
    ) -> Counter:
        """Country -> customer count via most-frequent login country.

        Logins from the service's own ASNs are excluded: the paper notes
        AAS logins are infrequent enough not to move the statistic, and
        excluding them models exactly that.
        """
        locator = LoginGeolocator(geoip)
        counts: Counter = Counter()
        for account in self.customers:
            try:
                endpoints = platform.auth.login_endpoints(account)
            except Exception:
                continue  # account deleted since
            own = [e.address for e in endpoints if e.asn not in service_asns]
            if own:
                counts[locator.account_country(own)] += 1
        return counts
