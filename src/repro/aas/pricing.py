"""AAS pricing structures (paper Tables 2-4).

All money is integer US cents; durations are simulation ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.timeutils import days


def dollars(amount: float) -> int:
    """Convert a dollar amount to integer cents."""
    return int(round(amount * 100))


@dataclass(frozen=True)
class SubscriptionPricing:
    """Reciprocity-abuse pricing: trial then pay-per-period (Table 2).

    ``trial_days_advertised`` vs ``trial_days_actual`` captures the
    Instazood quirk: it advertises a three-day trial but delivers seven
    (Section 4.2).
    """

    trial_days_advertised: int
    min_paid_days: int
    cost_cents: int
    trial_days_actual: int = -1  # -1 means "same as advertised"

    def __post_init__(self):
        if self.trial_days_advertised < 0 or self.min_paid_days <= 0:
            raise ValueError("invalid subscription pricing durations")
        if self.cost_cents <= 0:
            raise ValueError("cost must be positive")
        if self.trial_days_actual == -1:
            object.__setattr__(self, "trial_days_actual", self.trial_days_advertised)

    @property
    def trial_ticks(self) -> int:
        return days(self.trial_days_actual)

    @property
    def period_ticks(self) -> int:
        return days(self.min_paid_days)


@dataclass(frozen=True)
class LikePackage:
    """A Hublaagram one-time like package (Table 3, "Immediate")."""

    likes: int
    cost_cents: int


@dataclass(frozen=True)
class MonthlyLikeTier:
    """A Hublaagram monthly likes-per-photo tier (Table 3, "Month")."""

    likes_low: int
    likes_high: int
    cost_cents: int

    def contains(self, likes_per_photo: float) -> bool:
        return self.likes_low <= likes_per_photo < self.likes_high


@dataclass(frozen=True)
class HublaagramCatalog:
    """Hublaagram's full price list (paper Table 3)."""

    no_collusion_fee_cents: int = dollars(15)
    one_time_packages: tuple[LikePackage, ...] = (
        LikePackage(2_000, dollars(10)),
        LikePackage(5_000, dollars(20)),
        LikePackage(10_000, dollars(25)),
    )
    monthly_tiers: tuple[MonthlyLikeTier, ...] = (
        MonthlyLikeTier(250, 500, dollars(20)),
        MonthlyLikeTier(500, 1_000, dollars(30)),
        MonthlyLikeTier(1_000, 2_000, dollars(40)),
        MonthlyLikeTier(2_000, 4_000, dollars(70)),
    )

    def tier_for(self, likes_per_photo: float) -> MonthlyLikeTier | None:
        for tier in self.monthly_tiers:
            if tier.contains(likes_per_photo):
                return tier
        return None

    def scaled(self, factor: float) -> "HublaagramCatalog":
        """Scale action *quantities* (not prices) by ``factor``.

        Simulated populations are far smaller than Instagram's, so a
        2,000-like package cannot literally be fulfilled by 2,000 distinct
        accounts. Scaling quantities while keeping prices preserves the
        accounting structure; the revenue estimator consumes the same
        scaled catalog the service publishes (as the paper's estimator
        consumed the real published catalog).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return HublaagramCatalog(
            no_collusion_fee_cents=self.no_collusion_fee_cents,
            one_time_packages=tuple(
                LikePackage(max(1, int(p.likes * factor)), p.cost_cents)
                for p in self.one_time_packages
            ),
            monthly_tiers=tuple(
                MonthlyLikeTier(
                    max(1, int(t.likes_low * factor)),
                    max(2, int(t.likes_high * factor)),
                    t.cost_cents,
                )
                for t in self.monthly_tiers
            ),
        )


@dataclass(frozen=True)
class FollowersgratisOption:
    """A Followersgratis paid option (paper Table 4)."""

    description: str
    follows: int
    bonus_likes: int
    cost_cents: int
    duration_days: int  # 0 = instant


@dataclass(frozen=True)
class FollowersgratisCatalog:
    """Followersgratis's price list (paper Table 4)."""

    options: tuple[FollowersgratisOption, ...] = (
        FollowersgratisOption("500 follows + 300 free likes", 500, 300, dollars(3.15), 1),
        FollowersgratisOption("1000 follows + 500 free likes", 1_000, 500, dollars(5.25), 1),
        FollowersgratisOption("500 likes (250 free)", 0, 750, dollars(2.10), 0),
        FollowersgratisOption("500 likes (500 free)", 0, 1_000, dollars(5.25), 0),
    )


#: Table 2 rows.
INSTALEX_PRICING = SubscriptionPricing(
    trial_days_advertised=7, min_paid_days=7, cost_cents=dollars(3.15)
)
INSTAZOOD_PRICING = SubscriptionPricing(
    trial_days_advertised=3, min_paid_days=1, cost_cents=dollars(0.34), trial_days_actual=7
)
BOOSTGRAM_PRICING = SubscriptionPricing(
    trial_days_advertised=3, min_paid_days=30, cost_cents=dollars(99)
)
