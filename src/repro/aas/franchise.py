"""The Insta* franchise program (paper Section 3.3).

"We also discovered that the Instalex and Instazood services were
independently operated franchisees of the same parent organization
(which offers franchising services ranging from $1,990 to $30,990 per
month). Since they appear to be operated independently, we evaluate
these two services separately until Section 5 where we combine the two
services when we cannot separate their actions."

The parent organization licenses its automation stack and hosting
infrastructure to franchisees. Because every franchise runs the same
stack out of the same infrastructure, their platform traffic is
indistinguishable — which is why the paper reports them merged as
Insta*, and why Figure 2 shows a large "OTHER" country tail the authors
"suspect is an artifact of undiscovered franchised services around the
world".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aas.ledger import Payment, PaymentLedger
from repro.aas.pricing import SubscriptionPricing, dollars
from repro.aas.reciprocity_service import ReciprocityAbuseService, ReciprocityServiceConfig
from repro.aas.base import ServiceDescriptor, ServiceType
from repro.aas.targeting import CuratedPool, ReciprocityTargeting
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType


@dataclass(frozen=True)
class FranchiseTier:
    """One license tier of the parent organization."""

    name: str
    monthly_fee_cents: int

    def __post_init__(self):
        if self.monthly_fee_cents <= 0:
            raise ValueError("franchise fees must be positive")


#: The advertised range: $1,990 to $30,990 per month (instalex.pro/franchise).
FRANCHISE_TIERS: tuple[FranchiseTier, ...] = (
    FranchiseTier("starter", dollars(1_990)),
    FranchiseTier("growth", dollars(7_990)),
    FranchiseTier("enterprise", dollars(30_990)),
)


class FranchiseProgram:
    """The parent organization: shared stack, per-franchise businesses."""

    def __init__(
        self,
        platform: InstagramPlatform,
        fabric: NetworkFabric,
        rng: np.random.Generator,
        stack_variant: str = "aas-insta-parent",
        hosting_country: str = "USA",
    ):
        self.platform = platform
        self.fabric = fabric
        self.rng = rng
        self.stack_variant = stack_variant
        self.hosting_country = hosting_country
        self.ledger = PaymentLedger()  # franchise fees, not end-customer money
        self.franchises: dict[str, ReciprocityAbuseService] = {}
        self._tier_of: dict[str, FranchiseTier] = {}

    def launch_franchise(
        self,
        name: str,
        operating_country: str,
        candidates: list[AccountId],
        tier: FranchiseTier,
        pricing: SubscriptionPricing,
        budget_scale: float = 1.0,
        curated: CuratedPool | None = None,
    ) -> ReciprocityAbuseService:
        """Stand up a new franchise on the parent's stack and infra.

        The returned service is operated independently (own customers,
        own ledger, own pricing) but emits traffic indistinguishable from
        every sibling — same client variant, same exit ASNs.
        """
        if name in self.franchises:
            raise ValueError(f"franchise {name!r} already exists")
        if tier not in FRANCHISE_TIERS:
            raise ValueError("unknown franchise tier")
        descriptor = ServiceDescriptor(
            name=name,
            service_type=ServiceType.RECIPROCITY_ABUSE,
            offered_actions=frozenset(
                {ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT, ActionType.UNFOLLOW}
            ),
            operating_country=operating_country,
            asn_countries=(self.hosting_country,),
            stack_variant=self.stack_variant,
        )
        config = ReciprocityServiceConfig(
            pricing=pricing,
            daily_budgets={
                ActionType.LIKE: 48.0 * budget_scale,
                ActionType.FOLLOW: 60.0 * budget_scale,
                ActionType.COMMENT: 14.0 * budget_scale,
            },
        )
        targeting = ReciprocityTargeting(
            self.platform,
            candidates,
            self.rng,
            out_degree_bias=1.2,
            in_degree_bias=1.6,
            curated=curated,
        )
        service = ReciprocityAbuseService(
            descriptor, self.platform, self.fabric, self.rng, config, targeting
        )
        self.franchises[name] = service
        self._tier_of[name] = tier
        return service

    def collect_monthly_fees(self, franchise_account: AccountId = 0) -> int:
        """Bill every franchise its tier fee; returns cents collected.

        Fees are keyed by a synthetic account id per franchise (the
        parent's books track businesses, not platform accounts).
        """
        total = 0
        for index, (name, tier) in enumerate(sorted(self._tier_of.items())):
            payment = Payment(
                customer=franchise_account + index + 1,
                amount_cents=tier.monthly_fee_cents,
                tick=self.platform.clock.now,
                item=f"franchise-fee-{name.lower()}-{tier.name}",
            )
            self.ledger.record(payment)
            total += tier.monthly_fee_cents
        return total

    def tick(self) -> None:
        """Advance every franchise's automation one hour."""
        for service in self.franchises.values():
            service.tick()
