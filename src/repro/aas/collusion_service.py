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

Fulfilment: each tick visits every live order once. A visit makes up to
``4 * budget`` round-robin attempts over the source pool (active,
outbound-allowed customers minus the recipient), sharing one cursor
across all orders. Likes (free and single-media) run one inlined loop,
follows another, comments the generic per-attempt loop. A tick costs
time in proportion to the actions it issues plus the recipients it
visits: attempts that provably cannot issue — every one after the
recipient's daily like cap is reached or when it has no media, every
one at a recipient whose pool already follows it, and every one at a
recipient whose pool already likes the photo (for free likes, every
photo) — only advance the cursor. Follows and likes share one
saturation rule: a superset test of the recipient's followers (or the
photo's likers) against the pool's ids, at visit entry and after each
delivery. A follow recipient found saturated has its later orders of
the tick jumped by the tick loop without a visit; a free like
recipient found saturated is not tested again that tick. No
saturation verdict outlives its tick. The shortcuts rely on the
invariants stated in DESIGN.md §8, "Collusion fulfilment";
``tests/oracles/collusion.py`` is the per-attempt reference they are
tested against.
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
        #: attempted inbound likes per (recipient, day); only today's
        #: entries are read, and ``_adjust`` drops the rest daily
        self._recipient_attempts: dict[tuple[AccountId, int], int] = {}
        #: per-tick fulfilment state: the active source pool of tick
        #: ``_pool_cache_tick`` with each record's index, that pool minus
        #: each recipient visited and its account ids; the follow
        #: recipients whose pool already follows them (``tick`` jumps
        #: their later orders); and the free like recipients whose pool
        #: already likes every photo (``_fulfil_like``)
        self._pool_cache: list[CustomerRecord] = []
        self._pool_index: dict[AccountId, int] = {}
        self._pool_cache_tick: Optional[int] = None
        self._pools_excluding: dict[AccountId, list[CustomerRecord]] = {}
        self._pool_ids: dict[AccountId, set[AccountId]] = {}
        self._follows_saturated: set[AccountId] = set()
        self._free_likes_saturated: set[AccountId] = set()
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
        self._require_customer(account_id)
        if self.ads is not None and self.config.offers_ads:
            self.ads.serve_request()
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

    # ------------------------------------------------------------------
    # Fulfilment
    # ------------------------------------------------------------------

    def _source_pool(self, exclude: AccountId) -> list[CustomerRecord]:
        now = self.platform.clock.now
        if self._pool_cache_tick != now:
            # Only customers with an active service window are driven as
            # sources: the network stops using accounts whose engagement
            # lapsed (dormant credentials draw attention for no benefit).
            self._pool_cache = [
                record
                for record in self.customers.values()
                if record.account_id not in self.no_outbound and record.service_active(now)
            ]
            self._pool_cache_tick = now
            self._pool_index = {record.account_id: i for i, record in enumerate(self._pool_cache)}
            self._pools_excluding.clear()
            self._pool_ids.clear()
        # The active pool minus ``exclude``, built once per recipient per
        # tick by slicing around the (at most one) excluded element.
        # Callers only read and index the pool, so returning the cache
        # itself when the excluded account is not in it is safe.
        cache = self._pool_cache
        i = self._pool_index.get(exclude)
        if i is None:
            return cache
        pool = self._pools_excluding.get(exclude)
        if pool is None:
            pool = self._pools_excluding[exclude] = cache[:i] + cache[i + 1:]
        return pool

    def _pool_ids_of(self, recipient: AccountId) -> set[AccountId]:
        """The account ids of ``recipient``'s pool, once per recipient per
        tick: the tick pool's ids (``_pool_index``) less the recipient."""
        ids = self._pool_ids.get(recipient)
        if ids is None:
            ids = self._pool_ids[recipient] = self._pool_index.keys() - {recipient}
        return ids

    def _next_source(self, pool: list[CustomerRecord]) -> CustomerRecord:
        self._source_cursor = (self._source_cursor + 1) % len(pool)
        return pool[self._source_cursor]

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
        """One visit of ``order``: up to ``4 * budget`` round-robin
        attempts over the source pool, where ``budget`` is the hour's
        share of the order. DELIVERED and BLOCKED spend budget; FAILED
        and INVALID attempts spend only the attempt."""
        if not self.platform.account_exists(order.customer):
            order.delivered = order.quantity  # recipient gone; close out
            return
        pool = self._source_pool(exclude=order.customer)
        if not pool:
            return
        budget = max(1, order.per_hour)
        budget = min(budget, order.quantity - order.delivered)
        action_type = order.action_type
        if action_type is ActionType.FOLLOW:
            self._fulfil_follow(order, pool, budget)
            return
        if action_type is ActionType.LIKE:
            self._fulfil_like(order, pool, budget)
            return
        attempts = 0
        max_attempts = budget * 4
        while budget > 0 and attempts < max_attempts:
            attempts += 1
            source = self._next_source(pool)
            outcome = self._deliver_comment(order, source)
            if outcome is IssueOutcome.DELIVERED:
                order.delivered += 1
                budget -= 1
            elif outcome is IssueOutcome.BLOCKED:
                # the request was spent even though the platform refused
                # it — no instant retry storm against a blocking defender
                budget -= 1

    def _fulfil_follow(self, order: Order, pool: list[CustomerRecord], budget: int) -> None:
        """FOLLOW fulfilment. A source already following the recipient
        is an INVALID attempt: it draws no RNG and mutates nothing.

        Edges into the recipient only grow within the tick, so once
        every pool source follows it, every remaining attempt is
        INVALID. The test (``FollowerGraph.followed_by_all``) runs at
        visit entry and again after each delivered follow; when it
        holds, the cursor jumps past the remaining attempts, the visit
        ends, and the recipient goes into ``_follows_saturated``, so
        ``tick`` makes the same jump for its later orders of the tick
        without calling in here. A delivery that spends the visit's last
        budget unit ends the visit untested, where the per-attempt loop
        ends it too."""
        customer = order.customer
        size = len(pool)
        max_attempts = budget * 4
        graph = self.platform.graph
        pool_ids = self._pool_ids_of(customer)
        # raw out-edge rows: `customer in row` is is_following() without
        # the method call; the list is live storage, so re-check its
        # length each probe — deliveries inside the loop can extend it
        out_rows = graph.out_rows()
        cursor = self._source_cursor
        attempts = 0
        observe = self.detector.observe
        saturation_due = True
        while budget > 0 and attempts < max_attempts:
            if saturation_due:
                saturation_due = False
                if graph.followed_by_all(customer, pool_ids):
                    self._follows_saturated.add(customer)
                    cursor = (cursor + max_attempts - attempts) % size
                    break
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
                continue
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
                saturation_due = True  # only a delivered follow grows the followers
            elif outcome is IssueOutcome.BLOCKED:
                budget -= 1
        self._source_cursor = cursor

    def _fulfil_like(self, order: Order, pool: list[CustomerRecord], budget: int) -> None:
        """LIKE fulfilment, for free orders (a random media item of the
        recipient per attempt) and single-media orders alike.

        Each attempt checks, in order: the recipient's adaptive daily
        cap (FAILED), that the recipient has media (FAILED), the media
        pick (the only RNG draw), and whether the source already likes
        it (INVALID). The cap and the day's tally move only when an
        action is issued, and the media list is fixed within the tick,
        so once the cap is reached or the media list is empty, every
        remaining attempt is an RNG-free FAILED: the cursor jumps past
        them and the visit ends.

        Likes only grow within the tick, so once every pool source likes
        the order's photo (for a free order: every photo of the
        recipient), every remaining attempt is an INVALID that draws
        only its media pick. The test runs at visit entry, behind the
        cap check, and again after each delivered like; when it holds,
        the remaining picks are drawn in one call, the cursor jumps past
        them and the visit ends. A free recipient found saturated stays
        so for the rest of the tick (``_free_likes_saturated``), so its
        later visits skip the per-photo test."""
        customer = order.customer
        media_id = order.single_media
        store = self.platform.media
        media = None if media_id is not None else store.media_of(customer)
        no_media = media is not None and not media
        integers = self.rng.integers
        has_liked = store.has_liked
        liked_by_all = store.liked_by_all
        caps_get = self._recipient_caps.get
        tallies = self._recipient_attempts
        day_key = (customer, self.platform.clock.day)
        cap = caps_get(customer)
        count = tallies.get(day_key, 0)
        cursor = self._source_cursor
        size = len(pool)
        attempts = 0
        max_attempts = budget * 4
        saturation_due = True
        while budget > 0 and attempts < max_attempts:
            if no_media or (cap is not None and count >= cap):
                cursor = (cursor + max_attempts - attempts) % size
                break
            if saturation_due:
                saturation_due = False
                if media is None:
                    saturated = liked_by_all(media_id, self._pool_ids_of(customer))
                elif customer in self._free_likes_saturated:
                    saturated = True
                else:
                    pool_ids = self._pool_ids_of(customer)
                    saturated = all(liked_by_all(m.media_id, pool_ids) for m in media)
                    if saturated:
                        self._free_likes_saturated.add(customer)
                if saturated:
                    remaining = max_attempts - attempts
                    if media is not None:
                        integers(0, len(media), size=remaining)
                    cursor = (cursor + remaining) % size
                    break
            attempts += 1
            cursor += 1
            if cursor >= size:
                # the saved cursor can exceed this order's (smaller) pool
                # by more than one, so wrap by modulo, not by reset
                cursor %= size
            source = pool[cursor]
            if media is not None:
                media_id = media[int(integers(0, len(media)))].media_id
            if has_liked(media_id, source.account_id):
                continue  # IssueOutcome.INVALID: attempt spent, no effects
            count += 1
            tallies[day_key] = count
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
                saturation_due = True  # only a delivered like grows the likers
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
        today = self.platform.clock.day
        if today == self._last_adjust_day:
            return
        self._last_adjust_day = today
        self._recipient_attempts = {
            key: count for key, count in self._recipient_attempts.items() if key[1] == today
        }
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
        follows_saturated = self._follows_saturated
        follows_saturated.clear()
        self._free_likes_saturated.clear()
        live = []
        for order in self._orders:
            if order.open and not order.expired(now):
                customer = order.customer
                if order.action_type is ActionType.FOLLOW and customer in follows_saturated:
                    # every pool source already follows the recipient: its
                    # earlier visit this tick found it live with a non-empty
                    # pool, so this visit would only move the cursor
                    size = len(self._pool_cache) - (customer in self._pool_index)
                    budget = min(max(1, order.per_hour), order.quantity - order.delivered)
                    self._source_cursor = (self._source_cursor + 4 * budget) % size
                    live.append(order)
                    continue
                self._fulfil_order(order)
                if order.open:
                    live.append(order)
        self._orders = live
        self._apply_monthly_plans()
        self._adjust()
