"""The per-attempt reference for collusion-network fulfilment.

:class:`PerAttemptCollusionService` is a
:class:`repro.aas.collusion_service.CollusionNetworkService` whose order
visits make every attempt one at a time through one generic loop: pick
the next source round-robin, then run that action type's per-attempt
delivery (cap check, media check, media draw, already-done probe,
issue). It has none of the production engine's shortcuts — no jump past
a capped or media-less recipient, no follow saturation test and no
tick-loop jump past a saturated follow recipient, no like saturation
test, cached free-like verdict or batched media draw, no per-tick pool
per recipient — and is the oracle the production fulfilment is tested
against.
"""

from __future__ import annotations

from typing import Optional

from repro.aas.base import CustomerRecord, IssueOutcome
from repro.aas.collusion_service import CollusionNetworkService, Order
from repro.platform.models import AccountId, ActionType, ApiSurface


class PerAttemptCollusionService(CollusionNetworkService):
    """Collusion fulfilment as the plain per-attempt loop."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ref_pool_tick: Optional[int] = None
        self._ref_pool: list[CustomerRecord] = []

    def tick(self) -> None:
        now = self.platform.clock.now
        for order in self._orders:
            if order.open and not order.expired(now):
                self._fulfil_order(order)
        self._orders = [o for o in self._orders if o.open and not o.expired(now)]
        self._apply_monthly_plans()
        self._adjust()

    def _reference_pool(self, exclude: AccountId) -> list[CustomerRecord]:
        """The active, outbound-allowed customers minus ``exclude``.

        Membership is fixed at the tick's first visit: a source losing
        its credentials mid-tick stays in the pool until the next tick.
        """
        now = self.platform.clock.now
        if self._ref_pool_tick != now:
            self._ref_pool = [
                record
                for record in self.customers.values()
                if record.account_id not in self.no_outbound and record.service_active(now)
            ]
            self._ref_pool_tick = now
        return [record for record in self._ref_pool if record.account_id != exclude]

    def _fulfil_order(self, order: Order) -> None:
        if not self.platform.account_exists(order.customer):
            order.delivered = order.quantity
            return
        pool = self._reference_pool(order.customer)
        if not pool:
            return
        budget = min(max(1, order.per_hour), order.quantity - order.delivered)
        deliver = {
            ActionType.LIKE: self._deliver_like,
            ActionType.FOLLOW: self._deliver_follow,
            ActionType.COMMENT: self._deliver_comment,
        }[order.action_type]
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
                budget -= 1

    def _deliver_like(self, order: Order, source: CustomerRecord) -> IssueOutcome:
        key = (order.customer, self.platform.clock.day)
        cap = self._recipient_caps.get(order.customer)
        if cap is not None and self._recipient_attempts.get(key, 0) >= cap:
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
        self._recipient_attempts[key] = self._recipient_attempts.get(key, 0) + 1
        outcome = self._issue(
            source,
            lambda session, endpoint: self.platform.like(
                session, media_id, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._note_like_outcome(order.customer, outcome)
        return outcome

    def _deliver_follow(self, order: Order, source: CustomerRecord) -> IssueOutcome:
        customer = order.customer
        if self.platform.graph.is_following(source.account_id, customer):
            return IssueOutcome.INVALID
        outcome = self._issue(
            source,
            lambda session, endpoint: self.platform.follow(
                session, customer, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self.detector.observe(
            ActionType.FOLLOW, outcome is IssueOutcome.BLOCKED, self.platform.clock.now
        )
        return outcome
