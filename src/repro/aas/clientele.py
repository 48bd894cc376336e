"""Customer-population dynamics for an AAS.

The paper characterizes AAS customer bases over 90 days (Section 5.1):
stock of active customers, long-term vs short-term split, birth/death
rates, trial-to-paid conversion, renewals, and purchase mixes. This
driver generates that behaviour against a service instance:

* **Reciprocity services** — customers enroll (handing over their
  credentials), run the free trial, convert to paid with the service's
  conversion rate, then renew period-over-period with a retention
  probability. Non-converts disappear when the trial lapses.
* **Collusion services** — customers mostly ride the free tier
  (requesting small action batches for as long as they stay engaged);
  minorities buy the no-outbound opt-out, monthly like tiers, or
  one-time packages, with Table 9's relative frequencies as defaults.

Customer accounts are drawn from the organic population — AAS customers
are real users, and their accounts keep behaving organically alongside
the automation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aas.base import AccountAutomationService
from repro.aas.collusion_service import CollusionNetworkService, ServiceSuspendedError
from repro.aas.ledger import Payment
from repro.aas.reciprocity_service import ReciprocityAbuseService
from repro.behavior.population import OrganicPopulation
from repro.platform.errors import PlatformError
from repro.platform.models import AccountId, ActionType, ApiSurface
from repro.util.timeutils import HOURS_PER_DAY, days


@dataclass
class ClienteleParams:
    """Lifecycle knobs for one service's customer base."""

    #: pre-existing customers seeded at scenario start
    initial_customers: int = 100
    #: fraction of the initial stock that is already paying/long-term
    initial_long_term_fraction: float = 0.5
    #: expected new enrollments per day
    daily_new_customers: float = 4.0
    #: probability a trial customer converts to paid (paper Section 5.1:
    #: Boostgram 12%, Insta* 21%, Hublaagram 37%)
    conversion_rate: float = 0.2
    #: probability a paying customer renews at each period end
    renewal_probability: float = 0.90
    #: menu of requested action-type bundles with weights (reciprocity)
    requested_actions_menu: tuple[tuple[frozenset, float], ...] = (
        (frozenset({ActionType.LIKE, ActionType.FOLLOW, ActionType.UNFOLLOW}), 0.7),
        (frozenset({ActionType.LIKE, ActionType.FOLLOW}), 0.2),
        (frozenset({ActionType.LIKE}), 0.1),
    )
    # -- collusion-network personas -----------------------------------
    #: free service requests per engaged day
    free_request_rate_per_day: float = 5.0
    #: engagement duration draws: (short_lo, short_hi, long_lo, long_hi) days
    engagement_days_short: tuple[int, int] = (1, 4)
    engagement_days_long: tuple[int, int] = (5, 60)
    #: fraction of customers whose engagement is long
    long_engagement_fraction: float = 0.5
    #: share of free requests asking for likes (rest: follows/comments)
    free_like_request_share: float = 0.55
    #: purchase propensities (defaults shaped by paper Table 9 counts)
    no_outbound_fraction: float = 0.024
    monthly_plan_fraction: float = 0.032
    monthly_tier_weights: tuple[float, ...] = (0.352, 0.565, 0.078, 0.005)
    one_time_package_fraction: float = 0.0005
    #: probability per month that a monthly-plan customer renews
    monthly_renewal_probability: float = 0.85
    #: photos posted per day by monthly-plan customers (tiers apply per photo)
    plan_customer_posts_per_day: float = 0.4
    #: enrollment weight multiplier for users in the service's operating
    #: country — paper Figure 2: "for each AAS, the advertised country is
    #: also where the largest number of Instagram accounts are located"
    home_country_weight: float = 5.0
    #: fraction of reciprocity customers who narrow their targeting to a
    #: hashtag audience (paper Section 3.3.1: "customers can provide ...
    #: a list of hashtags")
    hashtag_preference_fraction: float = 0.3

    def __post_init__(self):
        for name in (
            "initial_long_term_fraction",
            "conversion_rate",
            "renewal_probability",
            "long_engagement_fraction",
            "free_like_request_share",
            "no_outbound_fraction",
            "monthly_plan_fraction",
            "one_time_package_fraction",
            "monthly_renewal_probability",
            "hashtag_preference_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.initial_customers < 0 or self.daily_new_customers < 0:
            raise ValueError("customer volumes must be non-negative")


@dataclass
class _Persona:
    """Per-customer hidden lifecycle state."""

    account_id: AccountId
    will_convert: bool = False
    engagement_ends: int = 0
    free_user: bool = False
    monthly_plan: bool = False
    handled_trial_end: bool = False


class ClienteleDriver:
    """Runs enrollment, payment, and free-tier usage for one service."""

    def __init__(
        self,
        service: AccountAutomationService,
        population: OrganicPopulation,
        rng: np.random.Generator,
        params: ClienteleParams,
    ):
        self.service = service
        self.population = population
        self.rng = rng
        self.params = params
        self._personas: dict[AccountId, _Persona] = {}
        self._pool = self._weighted_pool_order()
        self._pool_cursor = 0

    def _weighted_pool_order(self) -> list[AccountId]:
        """Candidate enrollment order, biased toward the home country.

        Word-of-mouth and language localize these services' customer
        bases (Figure 2), modelled as an enrollment-probability weight
        for users in the service's operating country.
        """
        pool = list(self.population.account_ids)
        home = self.service.descriptor.operating_country
        weight = max(self.params.home_country_weight, 1.0)
        weights = np.array(
            [
                weight if self.population.profiles[a].country == home else 1.0
                for a in pool
            ],
            dtype=float,
        )
        weights /= weights.sum()
        order = self.rng.choice(len(pool), size=len(pool), replace=False, p=weights)
        return [pool[int(i)] for i in order]

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------

    def _next_candidate(self) -> AccountId | None:
        while self._pool_cursor < len(self._pool):
            candidate = self._pool[self._pool_cursor]
            self._pool_cursor += 1
            if candidate in self.service.customers:
                continue
            if self.service.platform.account_exists(candidate):
                return candidate
        return None

    def _trial_ticks(self) -> int:
        if isinstance(self.service, ReciprocityAbuseService):
            return self.service.config.pricing.trial_ticks
        return days(1)  # collusion free tier: enrollment grants usage

    def _pick_actions(self) -> frozenset:
        menu = self.params.requested_actions_menu
        offered = self.service.descriptor.offered_actions
        weights = np.array([w for _, w in menu], dtype=float)
        weights /= weights.sum()
        index = int(self.rng.choice(len(menu), p=weights))
        bundle = frozenset(menu[index][0]) & offered
        if not bundle:
            bundle = frozenset({ActionType.LIKE}) & offered or frozenset({ActionType.FOLLOW})
        return bundle

    def enroll_one(self, backdate_ticks: int = 0) -> AccountId | None:
        """Enroll the next candidate account; returns its id or None."""
        candidate = self._next_candidate()
        if candidate is None:
            return None
        profile = self.population.profiles[candidate]
        account = self.service.platform.get_account(candidate)
        if isinstance(self.service, CollusionNetworkService):
            requested = frozenset({ActionType.LIKE, ActionType.FOLLOW}) & self.service.descriptor.offered_actions
        else:
            requested = self._pick_actions()
        hashtags: tuple[str, ...] = ()
        if (
            isinstance(self.service, ReciprocityAbuseService)
            and self.rng.random() < self.params.hashtag_preference_fraction
        ):
            hashtags = self._pick_hashtags()
        try:
            self.service.register_customer(
                account.username,
                profile.password,
                requested,
                trial_ticks=self._trial_ticks(),
                backdate_ticks=backdate_ticks,
                target_hashtags=hashtags,
            )
        except (PlatformError, ValueError):
            return None
        self._personas[candidate] = self._make_persona(candidate)
        return candidate

    def _pick_hashtags(self) -> tuple[str, ...]:
        """Customers pick interest tags they see organic users posting."""
        platform = self.service.platform
        for _ in range(8):
            sample = self.population.account_ids[
                int(self.rng.integers(0, len(self.population.account_ids)))
            ]
            media = platform.media.media_of(sample)
            # sorted: set-of-str iteration order varies with PYTHONHASHSEED
            # and would break run-to-run determinism
            tags = tuple(sorted({t for m in media for t in m.hashtags}))
            if tags:
                count = min(len(tags), int(self.rng.integers(1, 3)))
                picks = self.rng.choice(len(tags), size=count, replace=False)
                return tuple(tags[int(i)] for i in picks)
        return ()

    def _make_persona(self, account_id: AccountId) -> _Persona:
        now = self.service.platform.clock.now
        params = self.params
        persona = _Persona(account_id=account_id)
        if isinstance(self.service, CollusionNetworkService):
            persona.free_user = True
            long_engagement = self.rng.random() < params.long_engagement_fraction
            lo, hi = params.engagement_days_long if long_engagement else params.engagement_days_short
            persona.engagement_ends = now + days(int(self.rng.integers(lo, hi + 1)))
            roll = self.rng.random()
            try:
                if roll < params.no_outbound_fraction:
                    # No-outbound buyers still *use* the service (that is
                    # why they pay to keep their account off source duty).
                    self.service.purchase_no_outbound(account_id)
                elif roll < params.no_outbound_fraction + params.monthly_plan_fraction:
                    self._buy_monthly_plan(account_id)
                    persona.monthly_plan = True
                elif roll < (
                    params.no_outbound_fraction
                    + params.monthly_plan_fraction
                    + params.one_time_package_fraction
                ):
                    self._buy_one_time(account_id)
            except ServiceSuspendedError:
                pass  # "out of stock": would-be buyers ride the free tier
        else:
            persona.will_convert = self.rng.random() < params.conversion_rate
        return persona

    def _buy_monthly_plan(self, account_id: AccountId) -> None:
        assert isinstance(self.service, CollusionNetworkService)
        tiers = self.service.config.catalog.monthly_tiers
        weights = np.array(self.params.monthly_tier_weights[: len(tiers)], dtype=float)
        weights /= weights.sum()
        tier = tiers[int(self.rng.choice(len(tiers), p=weights))]
        self.service.purchase_monthly_plan(account_id, tier)

    def _buy_one_time(self, account_id: AccountId) -> None:
        assert isinstance(self.service, CollusionNetworkService)
        packages = self.service.config.catalog.one_time_packages
        package = packages[int(self.rng.integers(0, len(packages)))]
        media = self.service.platform.media.media_of(account_id)
        if not media:
            return
        choice = media[int(self.rng.integers(0, len(media)))]
        self.service.purchase_one_time_likes(account_id, package, choice.media_id)

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------

    def seed_initial(self) -> int:
        """Create the pre-existing customer stock at scenario start."""
        created = 0
        params = self.params
        for _ in range(params.initial_customers):
            long_term = self.rng.random() < params.initial_long_term_fraction
            backdate = days(int(self.rng.integers(30, 180))) if long_term else days(int(self.rng.integers(0, 3)))
            account_id = self.enroll_one(backdate_ticks=backdate)
            if account_id is None:
                continue
            created += 1
            if long_term:
                self._seed_long_term(account_id, backdate)
        return created

    def _seed_long_term(self, account_id: AccountId, backdate: int) -> None:
        """Give a seeded customer a paid history reaching into the past."""
        now = self.service.platform.clock.now
        record = self.service.customers[account_id]
        persona = self._personas[account_id]
        if isinstance(self.service, ReciprocityAbuseService):
            pricing = self.service.config.pricing
            persona.will_convert = True
            persona.handled_trial_end = True
            record.paid_until = now + int(self.rng.integers(1, pricing.period_ticks + 1))
            # Backdated payment history directly into the ledger.
            pay_tick = record.enrolled_at + pricing.trial_ticks
            while pay_tick < now:
                self.service.ledger.record(
                    Payment(
                        customer=account_id,
                        amount_cents=pricing.cost_cents,
                        tick=pay_tick,
                        item=f"{pricing.min_paid_days}d-subscription",
                    )
                )
                pay_tick += pricing.period_ticks
        else:
            # Long-term collusion users: extend engagement well past now.
            persona.engagement_ends = now + days(int(self.rng.integers(5, 60)))

    # ------------------------------------------------------------------
    # Per-tick behaviour
    # ------------------------------------------------------------------

    def _run_births(self) -> None:
        births = int(self.rng.poisson(self.params.daily_new_customers / HOURS_PER_DAY))
        for _ in range(births):
            self.enroll_one()

    def _run_reciprocity_payments(self) -> None:
        assert isinstance(self.service, ReciprocityAbuseService)
        now = self.service.platform.clock.now
        for account_id, persona in self._personas.items():
            record = self.service.customers.get(account_id)
            if record is None or record.cancelled or record.lost_credentials:
                continue
            if not persona.handled_trial_end and now >= record.trial_expires:
                persona.handled_trial_end = True
                if persona.will_convert:
                    self.service.purchase_period(account_id)
                continue
            if persona.handled_trial_end and persona.will_convert:
                if record.paid_until != 0 and now >= record.paid_until:
                    if self.rng.random() < self.params.renewal_probability:
                        self.service.purchase_period(account_id)
                    else:
                        persona.will_convert = False  # churned

    def _run_collusion_usage(self) -> None:
        assert isinstance(self.service, CollusionNetworkService)
        service = self.service
        now = service.platform.clock.now
        hourly_rate = self.params.free_request_rate_per_day / HOURS_PER_DAY
        for account_id, persona in self._personas.items():
            record = service.customers.get(account_id)
            if record is None or record.cancelled or record.lost_credentials:
                continue
            if persona.monthly_plan:
                self._run_plan_customer(account_id, persona)
                continue
            if not persona.free_user or now >= persona.engagement_ends:
                continue
            # Engaged free users keep their service window open by using it.
            record.trial_expires = max(record.trial_expires, now + days(1))
            if self.rng.random() < hourly_rate:
                share = self.params.free_like_request_share
                action = ActionType.LIKE if self.rng.random() < share else ActionType.FOLLOW
                if action not in service.descriptor.offered_actions:
                    action = ActionType.LIKE
                service.request_free_service(account_id, action)

    def _run_plan_customer(self, account_id: AccountId, persona: _Persona) -> None:
        """Monthly-plan customers post photos and renew their plans."""
        service = self.service
        assert isinstance(service, CollusionNetworkService)
        now = service.platform.clock.now
        if account_id not in service.monthly_plans:
            if self.rng.random() < self.params.monthly_renewal_probability:
                try:
                    self._buy_monthly_plan(account_id)
                except ServiceSuspendedError:
                    persona.monthly_plan = False
                    return
            else:
                persona.monthly_plan = False
                return
        if self.rng.random() < self.params.plan_customer_posts_per_day / HOURS_PER_DAY:
            self._post_photo(account_id)

    def _post_photo(self, account_id: AccountId) -> None:
        platform = self.service.platform
        profile = self.population.profiles.get(account_id)
        if profile is None:
            return
        try:
            account = platform.get_account(account_id)
            session = platform.login(account.username, profile.password, profile.endpoint)
            platform.post(session, profile.endpoint, caption="new photo", api=ApiSurface.PRIVATE_MOBILE)
        except PlatformError:
            pass

    def tick(self) -> None:
        """One simulated hour of customer-base dynamics."""
        self._run_births()
        if isinstance(self.service, ReciprocityAbuseService):
            self._run_reciprocity_payments()
        elif isinstance(self.service, CollusionNetworkService):
            self._run_collusion_usage()
