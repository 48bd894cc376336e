"""The reciprocity-abuse engine (paper Sections 3.1, 5.3, 6.3).

Drives outbound actions *from* customer accounts at targeted organic
users, harvesting reciprocal inbound actions. Implements:

* per-customer daily budgets per action type, spread over the day,
* degree-biased target selection (:mod:`repro.aas.targeting`),
* optional auto-unfollow of service-issued follows (all three
  reciprocity AASs offer unfollow, Table 1),
* block detection with threshold back-off and probing (Section 6.3),
* optional ASN/proxy migration once blocking persists (Section 6.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.aas.base import (
    AccountAutomationService,
    CustomerRecord,
    IssueOutcome,
    ServiceDescriptor,
)
from repro.aas.blockdetect import BlockDetector, BlockDetectorConfig, ThrottleState
from repro.aas.adaptation import MigrationPolicy
from repro.aas.pricing import SubscriptionPricing
from repro.aas.targeting import ReciprocityTargeting
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType, ApiSurface
from repro.util.timeutils import HOURS_PER_DAY, days

#: Comment strings cycled by services that offer comments.
DEFAULT_COMMENT_TEXTS = (
    "Nice shot!",
    "Love this",
    "Amazing feed",
    "Great content, check mine",
    "So cool!",
)


@dataclass
class ReciprocityServiceConfig:
    """Engine knobs for one reciprocity-abuse service."""

    pricing: SubscriptionPricing
    #: base per-account outbound actions per day, per action type
    daily_budgets: dict[ActionType, float] = field(
        default_factory=lambda: {ActionType.LIKE: 90.0, ActionType.FOLLOW: 60.0}
    )
    #: issued follows are withdrawn this many days later for customers who
    #: requested the unfollow service
    unfollow_after_days: int = 2
    #: a like target becomes eligible again after this many days (the
    #: service rotates back through accounts, liking different media);
    #: follow targets are never reused
    like_retarget_cooldown_days: int = 5
    comment_texts: tuple[str, ...] = DEFAULT_COMMENT_TEXTS
    detector: BlockDetectorConfig = field(default_factory=BlockDetectorConfig)
    detector_enabled: bool = True

    def __post_init__(self):
        for action_type, budget in self.daily_budgets.items():
            if budget <= 0:
                raise ValueError(f"daily budget for {action_type} must be positive")
        if self.unfollow_after_days < 1:
            raise ValueError("unfollow_after_days must be at least one day")
        if self.like_retarget_cooldown_days < 0:
            raise ValueError("like_retarget_cooldown_days must be non-negative")


class _LikeCooldown:
    """One customer's like targets still inside the retarget cooldown.

    A read-only membership view over the customer's ``target -> last
    like tick`` map: a target is excluded while its last like is newer
    than ``since``. Entries older than that are dead weight until the
    daily prune drops them; the view ignores them without copying.
    """

    __slots__ = ("recent", "since")

    def __init__(self, recent: dict[AccountId, int], since: int):
        self.recent = recent
        self.since = since

    def __contains__(self, target: object) -> bool:
        tick = self.recent.get(target)  # type: ignore[call-overload]
        return tick is not None and tick > self.since


class ReciprocityAbuseService(AccountAutomationService):
    """Instalex / Instazood / Boostgram engine."""

    def __init__(
        self,
        descriptor: ServiceDescriptor,
        platform: InstagramPlatform,
        fabric: NetworkFabric,
        rng: np.random.Generator,
        config: ReciprocityServiceConfig,
        targeting: ReciprocityTargeting,
        migration: MigrationPolicy | None = None,
    ):
        super().__init__(descriptor, platform, fabric, rng)
        self.config = config
        self.targeting = targeting
        self.migration = migration
        self.detector = BlockDetector(config.detector, enabled=config.detector_enabled)
        #: adaptive budgets are tracked per (customer, action type): blocking
        #: is observed per account, so only affected accounts back off —
        #: which is why the paper's control bin stays flat in Figure 5
        self._throttles: dict[tuple[AccountId, ActionType], ThrottleState] = {}
        self._last_block: dict[tuple[AccountId, ActionType], int] = {}
        #: (due_tick, customer_id, target) queue for auto-unfollow
        self._unfollow_queue: deque[tuple[int, AccountId, AccountId]] = deque()
        #: per-customer recently-liked targets with their last-like tick;
        #: entries outside the cooldown are dropped by the daily pass
        self._recent_like_targets: dict[AccountId, dict[AccountId, int]] = {}
        #: cached hashtag audiences: tag tuple -> (tick computed, accounts)
        self._audience_cache: dict[tuple[str, ...], tuple[int, set[AccountId]]] = {}
        self._last_adjust_tick = -1

    # ------------------------------------------------------------------
    # Payments
    # ------------------------------------------------------------------

    def purchase_period(self, account_id: AccountId) -> None:
        """Customer buys one minimum paid period (Table 2)."""
        record = self.customers[account_id]
        pricing = self.config.pricing
        now = self.platform.clock.now
        base = max(now, record.paid_until, record.trial_expires)
        record.paid_until = base + pricing.period_ticks
        self.record_payment(account_id, pricing.cost_cents, item=f"{pricing.min_paid_days}d-subscription")

    # ------------------------------------------------------------------
    # Automation
    # ------------------------------------------------------------------

    def throttle_for(self, account_id: AccountId, action_type: ActionType) -> ThrottleState | None:
        """The adaptive budget for one (customer, action type) pair."""
        budget = self.config.daily_budgets.get(action_type)
        if budget is None:
            return None
        key = (account_id, action_type)
        state = self._throttles.get(key)
        if state is None:
            state = ThrottleState(base_level=budget)
            self._throttles[key] = state
        return state

    def _hourly_count(self, record: CustomerRecord, action_type: ActionType) -> int:
        throttle = self.throttle_for(record.account_id, action_type)
        if throttle is None:
            return 0
        return int(self.rng.poisson(throttle.level / HOURS_PER_DAY))

    def _note_outcome(self, record: CustomerRecord, action_type: ActionType, outcome: IssueOutcome) -> None:
        """Feed the detector and, once detection is live, per-account backoff."""
        now = self.platform.clock.now
        blocked = outcome is IssueOutcome.BLOCKED
        self.detector.observe(action_type, blocked, now)
        if not blocked or not self.detector.operational(action_type, now):
            return
        throttle = self.throttle_for(record.account_id, action_type)
        if throttle is not None:
            throttle.on_blocking(now)
            self._last_block[(record.account_id, action_type)] = now

    def _like_exclusions(self, record: CustomerRecord) -> _LikeCooldown:
        """Targets liked within the cooldown window, as a live view."""
        recent = self._recent_like_targets.get(record.account_id)
        if recent is None:
            recent = self._recent_like_targets[record.account_id] = {}
        since = self.platform.clock.now - days(self.config.like_retarget_cooldown_days)
        return _LikeCooldown(recent, since)

    def _prune_like_cooldowns(self) -> None:
        """Drop like targets whose cooldown has run out (daily pass)."""
        since = self.platform.clock.now - days(self.config.like_retarget_cooldown_days)
        for recent in self._recent_like_targets.values():
            stale = [target for target, tick in recent.items() if tick <= since]
            for target in stale:
                del recent[target]

    def _audience_for(self, record: CustomerRecord) -> set[AccountId] | None:
        """The customer's hashtag audience, refreshed every few hours."""
        if not record.target_hashtags:
            return None
        now = self.platform.clock.now
        cached = self._audience_cache.get(record.target_hashtags)
        if cached is not None and now - cached[0] < 6:
            return cached[1]
        audience: set[AccountId] = set()
        for tag in record.target_hashtags:
            audience |= self.platform.media.accounts_posting(tag)
        self._audience_cache[record.target_hashtags] = (now, audience)
        return audience

    def _do_like(self, record: CustomerRecord) -> None:
        exclude = self._like_exclusions(record)
        targets = self.targeting.select(
            1,
            exclude=exclude,
            restrict_to=self._audience_for(record),
            own=record.account_id,
        )
        if not targets:
            return
        target = targets[0]
        candidates = self.platform.media.unliked_of(target, record.account_id)
        if not candidates:
            return
        choice = candidates[int(self.rng.integers(0, len(candidates)))]
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.like(
                session, choice.media_id, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        exclude.recent[target] = self.platform.clock.now
        self._note_outcome(record, ActionType.LIKE, outcome)

    def _do_follow(self, record: CustomerRecord) -> None:
        targets = self.targeting.select(
            1,
            exclude=record.targeted,
            use_curated=False,
            restrict_to=self._audience_for(record),
            own=record.account_id,
        )
        if not targets:
            return
        target = targets[0]
        if self.platform.graph.is_following(record.account_id, target):
            record.targeted.add(target)
            return
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.follow(
                session, target, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        record.targeted.add(target)
        self._note_outcome(record, ActionType.FOLLOW, outcome)
        if outcome is IssueOutcome.DELIVERED:
            record.issued_follows.append(target)
            if ActionType.UNFOLLOW in record.requested_actions:
                due = self.platform.clock.now + days(self.config.unfollow_after_days)
                self._unfollow_queue.append((due, record.account_id, target))

    def _do_comment(self, record: CustomerRecord) -> None:
        targets = self.targeting.select(1, exclude=(), use_curated=False, own=record.account_id)
        if not targets:
            return
        media = self.platform.media.media_of(targets[0])
        if not media:
            return
        choice = media[int(self.rng.integers(0, len(media)))]
        text = self.config.comment_texts[int(self.rng.integers(0, len(self.config.comment_texts)))]
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.comment(
                session, choice.media_id, text, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._note_outcome(record, ActionType.COMMENT, outcome)

    def _do_post(self, record: CustomerRecord) -> None:
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.post(
                session, endpoint, caption="scheduled post", api=ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._note_outcome(record, ActionType.POST, outcome)

    def _process_unfollows(self) -> None:
        now = self.platform.clock.now
        while self._unfollow_queue and self._unfollow_queue[0][0] <= now:
            _, customer_id, target = self._unfollow_queue.popleft()
            record = self.customers.get(customer_id)
            if record is None or not record.service_active(now):
                continue
            if not self.platform.account_exists(target):
                continue
            if not self.platform.graph.is_following(customer_id, target):
                continue  # delayed removal (or the user) beat us to it
            outcome = self._issue(
                record,
                lambda session, endpoint: self.platform.unfollow(
                    session, target, endpoint, ApiSurface.PRIVATE_MOBILE
                ),
            )
            self._note_outcome(record, ActionType.UNFOLLOW, outcome)
            if outcome is IssueOutcome.DELIVERED:
                # the slot frees up: the service can target this account
                # again later (sustains budgets against a finite universe)
                record.targeted.discard(target)

    def _adjust_throttles(self) -> None:
        """Daily adaptation pass: probe suppressed accounts back up,
        prune expired like cooldowns, and consider migrating
        infrastructure when blocking is pervasive."""
        now = self.platform.clock.now
        if self.platform.clock.day == self._last_adjust_tick:
            return
        self._last_adjust_tick = self.platform.clock.day
        self._prune_like_cooldowns()
        suppressed_accounts: dict[ActionType, int] = {}
        active_accounts = max(len(self.active_customers(now)), 1)
        for (account_id, action_type), throttle in self._throttles.items():
            last_block = self._last_block.get((account_id, action_type), -(10**9))
            if throttle.suppressed and now - last_block >= throttle.probe_interval_ticks:
                throttle.on_quiet(now)
            if throttle.suppressed:
                suppressed_accounts[action_type] = suppressed_accounts.get(action_type, 0) + 1
        if self.migration is not None:
            for action_type in self.config.daily_budgets:
                pervasive = suppressed_accounts.get(action_type, 0) > 0.5 * active_accounts
                self.migration.note_state(action_type, pervasive, now)
            if self.migration.should_migrate(now):
                self.migration.migrate(self, now)

    def _on_endpoints_replaced(self) -> None:
        """Migration optimism: budgets restart at base on the new exits."""
        self._throttles.clear()
        self._last_block.clear()

    def tick(self) -> None:
        """One simulated hour of automation across all active customers."""
        now = self.platform.clock.now
        dispatch = {
            ActionType.LIKE: self._do_like,
            ActionType.FOLLOW: self._do_follow,
            ActionType.COMMENT: self._do_comment,
            ActionType.POST: self._do_post,
        }
        for record in self.active_customers(now):
            for action_type, handler in dispatch.items():
                if action_type not in record.requested_actions:
                    continue
                for _ in range(self._hourly_count(record, action_type)):
                    handler(record)
        self._process_unfollows()
        self._adjust_throttles()
