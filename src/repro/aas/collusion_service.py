"""The collusion-network engine (paper Sections 3.2, 5.2).

Hublaagram / Followersgratis: customer accounts are used *in concert* —
each enrolled account both receives inbound actions and is used as a
source of outbound actions to other customers ("similar, in principle,
to the notion of a mix network").

Implemented mechanics:

* free service requests, rate limited per customer (Hublaagram: two
  requests per hour, ~80 likes or ~40 follows each — hence the 160
  likes/hour free ceiling its revenue model keys on),
* pop-under ads served on every free request (1-4 per visit),
* the paid catalog: one-time like packages "applied as fast as possible
  to a single post", monthly likes-per-photo tiers applied to each new
  photo, and the one-time "no collusion network" opt-out fee,
* block detection with per-action-type deployment lag (Hublaagram took
  ~3 weeks to react to like blocking, Figure 6) and throttle adaptation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.aas.ads import PopUnderAdNetwork
from repro.aas.adaptation import MigrationPolicy
from repro.aas.base import (
    AccountAutomationService,
    CustomerRecord,
    IssueOutcome,
    ServiceDescriptor,
)
from repro.aas.blockdetect import BlockDetector, BlockDetectorConfig
from repro.aas.pricing import HublaagramCatalog, LikePackage, MonthlyLikeTier
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType, ApiSurface, MediaId
from repro.util.timeutils import HOURS_PER_DAY


class ServiceSuspendedError(RuntimeError):
    """The service has listed its offerings as out of stock."""


@dataclass
class Order:
    """One fulfilment job: deliver ``quantity`` inbound actions."""

    order_id: int
    customer: AccountId
    action_type: ActionType
    quantity: int
    per_hour: int
    created_at: int
    #: restrict likes to a single media item (one-time packages)
    single_media: Optional[MediaId] = None
    delivered: int = 0
    is_paid: bool = False
    #: orders the network cannot fill (e.g. every available source already
    #: follows the recipient) are abandoned after this many ticks
    ttl_ticks: int = 48

    @property
    def open(self) -> bool:
        return self.delivered < self.quantity

    def expired(self, now: int) -> bool:
        return now >= self.created_at + self.ttl_ticks


@dataclass
class MonthlyPlanState:
    """A paying monthly-tier subscription (Table 3, "Month" rows)."""

    tier: MonthlyLikeTier
    target_per_photo: int
    expires: int
    #: delivered like counts per media item
    progress: dict[MediaId, int] = field(default_factory=dict)


@dataclass
class CollusionServiceConfig:
    """Engine knobs for one collusion-network service."""

    catalog: HublaagramCatalog
    likes_per_free_request: int = 80
    follows_per_free_request: int = 40
    comments_per_free_request: int = 10
    free_requests_per_hour: int = 2
    #: delivery speed of free orders (per hour, per order)
    free_delivery_per_hour: int = 80
    #: delivery speed of paid orders — exceeds the free ceiling, which is
    #: exactly the signal the paper's revenue estimator keys on
    paid_delivery_per_hour: int = 400
    #: hours a monthly plan runs
    plan_ticks: int = 30 * HOURS_PER_DAY
    detector: BlockDetectorConfig = field(default_factory=BlockDetectorConfig)
    detector_enabled: bool = True
    offers_ads: bool = True
    #: action types available through the free tier (Followersgratis only
    #: offers free follows, Section 3.3.2)
    free_action_types: frozenset = frozenset(
        {ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT}
    )
    #: days of being unable to deliver its paid like products (plan
    #: targets capped below deliverability, or likes outright blocked)
    #: after which the service stops accepting payments — the paper's
    #: epilogue: "Hublaagram, unable to produce sustainable unblocked
    #: actions, stopped accepting customer payments by listing all
    #: offered services as out of stock"
    suspend_sales_after_days: int = 30

    def __post_init__(self):
        if self.likes_per_free_request <= 0 or self.follows_per_free_request <= 0:
            raise ValueError("free request quantities must be positive")
        if self.free_requests_per_hour < 1:
            raise ValueError("free_requests_per_hour must be at least 1")
        if self.paid_delivery_per_hour <= self.free_delivery_per_hour:
            raise ValueError("paid delivery must be faster than free delivery")

    @property
    def free_like_ceiling_per_hour(self) -> int:
        """The emergent free-tier ceiling (Hublaagram: 160 likes/hour)."""
        return self.likes_per_free_request * self.free_requests_per_hour


class CollusionNetworkService(AccountAutomationService):
    """Hublaagram / Followersgratis engine."""

    def __init__(
        self,
        descriptor: ServiceDescriptor,
        platform: InstagramPlatform,
        fabric: NetworkFabric,
        rng: np.random.Generator,
        config: CollusionServiceConfig,
        ads: PopUnderAdNetwork | None = None,
        migration: MigrationPolicy | None = None,
    ):
        super().__init__(descriptor, platform, fabric, rng)
        self.config = config
        self.ads = ads
        self.migration = migration
        self.detector = BlockDetector(config.detector, enabled=config.detector_enabled)
        self._orders: list[Order] = []
        self._order_ids = itertools.count(1)
        self._free_request_ticks: dict[AccountId, list[int]] = {}
        self.no_outbound: set[AccountId] = set()
        self.monthly_plans: dict[AccountId, MonthlyPlanState] = {}
        self._source_cursor = 0
        self._last_adjust_day = -1
        #: per-recipient adaptive daily like caps, installed once the
        #: service observes its likes to that recipient being blocked
        #: (per-account adaptation keeps control-bin customers unaffected)
        self._recipient_caps: dict[AccountId, float] = {}
        self._recipient_last_block: dict[AccountId, int] = {}
        #: attempted inbound likes per (recipient, day)
        self._recipient_attempts: dict[tuple[AccountId, int], int] = {}
        #: epilogue state: consecutive blocked days and the sales flag
        self._blocked_day_streak = 0
        self.sales_suspended = False

    # ------------------------------------------------------------------
    # Customer-facing requests
    # ------------------------------------------------------------------

    def _check_free_rate(self, account_id: AccountId) -> bool:
        now = self.platform.clock.now
        history = self._free_request_ticks.setdefault(account_id, [])
        history[:] = [t for t in history if t > now - 1]  # 1-tick (hour) window
        if len(history) >= self.config.free_requests_per_hour:
            return False
        history.append(now)
        return True

    def request_free_service(self, account_id: AccountId, action_type: ActionType) -> Optional[Order]:
        """A customer visits the site and requests free inbound actions.

        Serves pop-under ads on every interaction; returns None when the
        customer is rate limited.
        """
        record = self._require_customer(account_id)
        if self.ads is not None and self.config.offers_ads:
            country = self._customer_country(record)
            self.ads.serve_request(country)
        if not self._check_free_rate(account_id):
            return None
        quantities = {
            ActionType.LIKE: self.config.likes_per_free_request,
            ActionType.FOLLOW: self.config.follows_per_free_request,
            ActionType.COMMENT: self.config.comments_per_free_request,
        }
        if (
            action_type not in quantities
            or action_type not in self.descriptor.offered_actions
            or action_type not in self.config.free_action_types
        ):
            raise ValueError(f"{self.name} offers no free {action_type.value} service")
        order = Order(
            order_id=next(self._order_ids),
            customer=account_id,
            action_type=action_type,
            quantity=quantities[action_type],
            per_hour=self.config.free_delivery_per_hour,
            created_at=self.platform.clock.now,
        )
        self._orders.append(order)
        return order

    def purchase_no_outbound(self, account_id: AccountId) -> None:
        """One-time fee: never use this account as a collusion source."""
        self._require_sales_open()
        self._require_customer(account_id)
        self.no_outbound.add(account_id)
        self.record_payment(
            account_id, self.config.catalog.no_collusion_fee_cents, item="no-outbound-fee"
        )

    def purchase_one_time_likes(self, account_id: AccountId, package: LikePackage, media_id: MediaId) -> Order:
        """One-time like package applied "as fast as possible" to one post."""
        self._require_sales_open()
        self._require_customer(account_id)
        if package not in self.config.catalog.one_time_packages:
            raise ValueError("unknown package")
        self.record_payment(account_id, package.cost_cents, item=f"one-time-{package.likes}-likes")
        order = Order(
            order_id=next(self._order_ids),
            customer=account_id,
            action_type=ActionType.LIKE,
            quantity=package.likes,
            per_hour=self.config.paid_delivery_per_hour,
            created_at=self.platform.clock.now,
            single_media=media_id,
            is_paid=True,
        )
        self._orders.append(order)
        return order

    def purchase_monthly_plan(self, account_id: AccountId, tier: MonthlyLikeTier) -> MonthlyPlanState:
        """Monthly tier: the bought like quantity lands on each new photo."""
        self._require_sales_open()
        self._require_customer(account_id)
        if tier not in self.config.catalog.monthly_tiers:
            raise ValueError("unknown tier")
        self.record_payment(
            account_id, tier.cost_cents, item=f"monthly-{tier.likes_low}-{tier.likes_high}"
        )
        target = int(self.rng.integers(tier.likes_low, tier.likes_high))
        state = MonthlyPlanState(
            tier=tier,
            target_per_photo=max(1, target),
            expires=self.platform.clock.now + self.config.plan_ticks,
        )
        self.monthly_plans[account_id] = state
        record = self.customers[account_id]
        record.paid_until = max(record.paid_until, state.expires)
        return state

    def _require_sales_open(self) -> None:
        if self.sales_suspended:
            raise ServiceSuspendedError(f"{self.name}: all services are out of stock")

    def _require_customer(self, account_id: AccountId) -> CustomerRecord:
        record = self.customers.get(account_id)
        if record is None or record.cancelled:
            raise KeyError(f"{account_id} is not an active customer of {self.name}")
        return record

    def _customer_country(self, record: CustomerRecord) -> str:
        endpoints = self.platform.auth.login_endpoints(record.account_id)
        if not endpoints:
            return "OTHER"
        # Site visits come from the customer's own network, i.e. the most
        # recent non-service login if one exists.
        service_asns = self.current_asns()
        own = [e for e in endpoints if e.asn not in service_asns]
        chosen = own[-1] if own else endpoints[-1]
        return self.fabric.registry.country_of_asn(chosen.asn)

    # ------------------------------------------------------------------
    # Fulfilment
    # ------------------------------------------------------------------

    def _source_pool(self, exclude: AccountId) -> list[CustomerRecord]:
        now = self.platform.clock.now
        if getattr(self, "_pool_cache_tick", None) != now:
            # Only customers with an active service window are driven as
            # sources: the network stops using accounts whose engagement
            # lapsed (dormant credentials draw attention for no benefit).
            self._pool_cache = [
                record
                for record in self.customers.values()
                if record.account_id not in self.no_outbound and record.service_active(now)
            ]
            self._pool_cache_tick = now
            self._pool_index = {
                record.account_id: i for i, record in enumerate(self._pool_cache)
            }
        # The active pool minus ``exclude``, assembled by slicing around
        # the (at most one) excluded element instead of re-testing every
        # record per order. Callers only read and index the pool, so
        # returning the cache itself when the excluded account is not in
        # it is safe.
        cache = self._pool_cache
        i = self._pool_index.get(exclude)
        if i is None:
            return cache
        return cache[:i] + cache[i + 1:]

    def _next_source(self, pool: list[CustomerRecord]) -> CustomerRecord:
        self._source_cursor = (self._source_cursor + 1) % len(pool)
        return pool[self._source_cursor]

    def _recipient_allowed(self, recipient: AccountId) -> bool:
        """Check the recipient's adaptive daily like cap, if one exists."""
        cap = self._recipient_caps.get(recipient)
        if cap is None:
            return True
        attempts = self._recipient_attempts.get((recipient, self.platform.clock.day), 0)
        return attempts < cap

    def _note_like_outcome(self, recipient: AccountId, outcome: IssueOutcome) -> None:
        now = self.platform.clock.now
        blocked = outcome is IssueOutcome.BLOCKED
        self.detector.observe(ActionType.LIKE, blocked, now)
        if not blocked or not self.detector.operational(ActionType.LIKE, now):
            return
        attempts = self._recipient_attempts.get((recipient, self.platform.clock.day), 1)
        current = self._recipient_caps.get(recipient, float(attempts))
        self._recipient_caps[recipient] = max(2.0, min(current, attempts) * 0.6)
        self._recipient_last_block[recipient] = now

    def _deliver_like(self, order: Order, source: CustomerRecord) -> IssueOutcome:
        if not self._recipient_allowed(order.customer):
            return IssueOutcome.FAILED
        if order.single_media is not None:
            media_id = order.single_media
        else:
            media = self.platform.media.media_of(order.customer)
            if not media:
                return IssueOutcome.FAILED
            media_id = media[int(self.rng.integers(0, len(media)))].media_id
        if self.platform.media.has_liked(media_id, source.account_id):
            return IssueOutcome.INVALID
        key = (order.customer, self.platform.clock.day)
        self._recipient_attempts[key] = self._recipient_attempts.get(key, 0) + 1
        outcome = self._issue(
            source,
            lambda session, endpoint: self.platform.like(
                session, media_id, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._note_like_outcome(order.customer, outcome)
        return outcome

    def _deliver_comment(self, order: Order, source: CustomerRecord) -> IssueOutcome:
        media = self.platform.media.media_of(order.customer)
        if not media:
            return IssueOutcome.FAILED
        media_id = media[int(self.rng.integers(0, len(media)))].media_id
        outcome = self._issue(
            source,
            lambda session, endpoint: self.platform.comment(
                session, media_id, "nice!", endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self.detector.observe(ActionType.COMMENT, outcome is IssueOutcome.BLOCKED, self.platform.clock.now)
        return outcome

    def _fulfil_order(self, order: Order) -> None:
        if not self.platform.account_exists(order.customer):
            order.delivered = order.quantity  # recipient gone; close out
            return
        pool = self._source_pool(exclude=order.customer)
        if not pool:
            return
        budget = max(1, order.per_hour)
        budget = min(budget, order.quantity - order.delivered)
        action_type = order.action_type
        # In a saturated network nearly every attempt is an RNG-free,
        # effect-free rejection — a source that already follows (or
        # already likes) the recipient, classified by a single probe.
        # The follow and single-media like loops inline the cursor math
        # and that probe so the dominant (rejected) attempts cost a
        # couple of dict/set lookups. Free like orders take the generic
        # loop: their media pick draws RNG *before* the has-liked
        # rejection, so the probe cannot be hoisted.
        if action_type is ActionType.FOLLOW:
            self._fulfil_follow(order, pool, budget)
            return
        if action_type is ActionType.LIKE and order.single_media is not None:
            self._fulfil_like_single(order, pool, budget)
            return
        if action_type is ActionType.LIKE:
            deliver = self._deliver_like
        else:
            deliver = self._deliver_comment
        attempts = 0
        max_attempts = budget * 4
        while budget > 0 and attempts < max_attempts:
            attempts += 1
            source = self._next_source(pool)
            outcome = deliver(order, source)
            if outcome is IssueOutcome.DELIVERED:
                order.delivered += 1
                budget -= 1
            elif outcome is IssueOutcome.BLOCKED:
                # the request was spent even though the platform refused
                # it — no instant retry storm against a blocking defender
                budget -= 1

    def _fulfil_follow(self, order: Order, pool: list[CustomerRecord], budget: int) -> None:
        """FOLLOW fulfilment: the generic loop's round-robin attempts
        over the pool, with the already-following rejection inlined (it
        draws no RNG and mutates nothing, so a rejected attempt spends
        only the attempt)."""
        # raw out-edge rows: `customer in row` is is_following() without
        # the method call (the scan probes once per attempt); the list is
        # live storage, so re-check its length each probe — deliveries
        # inside the loop can extend it
        out_rows = self.platform.graph.out_rows()
        customer = order.customer
        cursor = self._source_cursor
        size = len(pool)
        attempts = 0
        max_attempts = budget * 4
        observe = self.detector.observe
        while budget > 0 and attempts < max_attempts:
            attempts += 1
            cursor += 1
            if cursor >= size:
                # the saved cursor can exceed this order's (smaller) pool
                # by more than one, so wrap by modulo, not by reset
                cursor %= size
            source = pool[cursor]
            source_id = source.account_id
            row = out_rows[source_id] if source_id < len(out_rows) else None
            if row is not None and customer in row:
                continue  # IssueOutcome.INVALID: spends only the attempt
            self._source_cursor = cursor  # keep shared state exact before issuing
            outcome = self._issue(
                source,
                lambda session, endpoint: self.platform.follow(
                    session, customer, endpoint, ApiSurface.PRIVATE_MOBILE
                ),
            )
            observe(
                ActionType.FOLLOW,
                outcome is IssueOutcome.BLOCKED,
                self.platform.clock.now,
            )
            if outcome is IssueOutcome.DELIVERED:
                order.delivered += 1
                budget -= 1
            elif outcome is IssueOutcome.BLOCKED:
                budget -= 1
        self._source_cursor = cursor

    def _fulfil_like_single(
        self, order: Order, pool: list[CustomerRecord], budget: int
    ) -> None:
        """Fulfilment of single-media like orders: same attempts,
        sources, outcomes, attempt tallies, and cursor positions as the
        generic loop over :meth:`_deliver_like`, with the recipient-cap
        and already-liked rejections inlined (both are RNG-free; only
        the cap check mutates nothing)."""
        media_id = order.single_media
        customer = order.customer
        has_liked = self.platform.media.has_liked
        caps_get = self._recipient_caps.get
        attempts_map = self._recipient_attempts
        day_key = (customer, self.platform.clock.day)
        cursor = self._source_cursor
        size = len(pool)
        attempts = 0
        max_attempts = budget * 4
        # loop-invariant between issues: the cap only moves inside
        # _note_like_outcome (re-read after each issue below) and the
        # day's attempt tally only moves in this loop
        cap = caps_get(customer)
        count = attempts_map.get(day_key, 0)
        while budget > 0 and attempts < max_attempts:
            attempts += 1
            cursor += 1
            if cursor >= size:
                # the saved cursor can exceed this order's (smaller) pool
                # by more than one, so wrap by modulo, not by reset
                cursor %= size
            source = pool[cursor]
            if cap is not None and count >= cap:
                continue  # IssueOutcome.FAILED: cap reached, attempt spent
            if has_liked(media_id, source.account_id):
                continue  # IssueOutcome.INVALID: attempt spent, no effects
            count += 1
            attempts_map[day_key] = count
            self._source_cursor = cursor  # keep shared state exact before issuing
            outcome = self._issue(
                source,
                lambda session, endpoint: self.platform.like(
                    session, media_id, endpoint, ApiSurface.PRIVATE_MOBILE
                ),
            )
            self._note_like_outcome(customer, outcome)
            cap = caps_get(customer)  # _note_like_outcome may have tightened it
            if outcome is IssueOutcome.DELIVERED:
                order.delivered += 1
                budget -= 1
            elif outcome is IssueOutcome.BLOCKED:
                budget -= 1
        self._source_cursor = cursor

    def _apply_monthly_plans(self) -> None:
        now = self.platform.clock.now
        for account_id, plan in list(self.monthly_plans.items()):
            if now >= plan.expires:
                del self.monthly_plans[account_id]
                continue
            if not self.platform.account_exists(account_id):
                continue
            for media in self.platform.media.media_of(account_id):
                if media.created_at < now - self.config.plan_ticks:
                    continue  # plans cover photos posted during the plan
                done = plan.progress.get(media.media_id, 0)
                if done >= plan.target_per_photo:
                    continue
                order = Order(
                    order_id=next(self._order_ids),
                    customer=account_id,
                    action_type=ActionType.LIKE,
                    quantity=min(
                        plan.target_per_photo - done,
                        max(1, self.config.paid_delivery_per_hour),
                    ),
                    per_hour=self.config.paid_delivery_per_hour,
                    created_at=now,
                    single_media=media.media_id,
                    is_paid=True,
                )
                before = order.delivered
                self._fulfil_order(order)
                plan.progress[media.media_id] = done + (order.delivered - before)

    def _adjust(self) -> None:
        now = self.platform.clock.now
        if self.platform.clock.day == self._last_adjust_day:
            return
        self._last_adjust_day = self.platform.clock.day
        if self._paid_product_unservable(now):
            self._blocked_day_streak += 1
        else:
            # decay rather than reset: brief escapes (e.g. right after an
            # ASN move, before the defender re-learns) do not erase the
            # accumulated evidence that the business is unsustainable
            self._blocked_day_streak = max(0, self._blocked_day_streak - 1)
        if (
            not self.sales_suspended
            and self._blocked_day_streak >= self.config.suspend_sales_after_days
        ):
            self.sales_suspended = True
        for recipient, cap in list(self._recipient_caps.items()):
            last_block = self._recipient_last_block.get(recipient, -(10**9))
            if now - last_block >= 2 * HOURS_PER_DAY:
                grown = cap * 1.12
                if grown > 4 * self.config.free_like_ceiling_per_hour * HOURS_PER_DAY:
                    del self._recipient_caps[recipient]  # cap outgrown: forget it
                else:
                    self._recipient_caps[recipient] = grown
        if self.migration is not None:
            capped = len(self._recipient_caps)
            active = max(len(self.active_customers(now)), 1)
            self.migration.note_state(ActionType.LIKE, capped > 0.5 * active, now)
            if self.migration.should_migrate(now):
                self.migration.migrate(self, now)

    def _paid_product_unservable(self, now: int) -> bool:
        """Whether blocking prevents delivering the paid like products.

        True when likes are being visibly blocked, or when the adaptive
        per-recipient caps sit below what the majority of monthly-plan
        customers bought — "unable to produce sustainable unblocked
        actions".
        """
        if self.detector.blocking_detected(ActionType.LIKE, now):
            return True
        if not self.monthly_plans:
            return False
        starved = 0
        for account_id, plan in self.monthly_plans.items():
            cap = self._recipient_caps.get(account_id)
            if cap is not None and cap < plan.target_per_photo:
                starved += 1
        return starved > 0.5 * len(self.monthly_plans)

    def _on_endpoints_replaced(self) -> None:
        """Migration optimism: per-recipient caps reset on the new exits."""
        self._recipient_caps.clear()
        self._recipient_last_block.clear()

    def tick(self) -> None:
        """One simulated hour of collusion-network fulfilment."""
        now = self.platform.clock.now
        for order in self._orders:
            if order.open and not order.expired(now):
                self._fulfil_order(order)
        self._orders = [o for o in self._orders if o.open and not o.expired(now)]
        self._apply_monthly_plans()
        self._adjust()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def open_orders(self) -> list[Order]:
        return [o for o in self._orders if o.open]

    def recipient_cap(self, recipient: AccountId) -> float | None:
        """The adaptive daily like cap for a recipient, if any."""
        return self._recipient_caps.get(recipient)
