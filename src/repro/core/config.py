"""Study configuration and presets.

All scale-dependent knobs live here. Population and customer counts are
scaled down from the paper's (Instagram has 800M users; the simulation
runs thousands), and ``quantity_scale`` shrinks collusion-package sizes
correspondingly — the analyses consume the same scaled catalogs the
services publish, so every accounting relationship is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.aas.clientele import ClienteleParams
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import PopulationConfig
from repro.behavior.reciprocity import ReciprocityParams


def _instalex_clientele(initial: int, daily: float) -> ClienteleParams:
    #: Section 5.1: Insta* long-term conversion 21%; Insta* grew ~10%.
    #: The requested-action menu includes a comment-buying minority so the
    #: Table 11 Insta* mix (5.6% comments) emerges.
    from repro.platform.models import ActionType

    return ClienteleParams(
        initial_customers=initial,
        initial_long_term_fraction=0.40,
        daily_new_customers=daily,
        conversion_rate=0.21,
        renewal_probability=0.93,
        requested_actions_menu=(
            (frozenset({ActionType.LIKE, ActionType.FOLLOW, ActionType.UNFOLLOW}), 0.42),
            (
                frozenset(
                    {ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT, ActionType.UNFOLLOW}
                ),
                0.30,
            ),
            (frozenset({ActionType.LIKE, ActionType.FOLLOW}), 0.18),
            (frozenset({ActionType.LIKE}), 0.10),
        ),
    )


def _boostgram_clientele(initial: int, daily: float) -> ClienteleParams:
    #: Section 5.1: Boostgram conversion 12% (priciest service); shrank.
    return ClienteleParams(
        initial_customers=initial,
        initial_long_term_fraction=0.40,
        daily_new_customers=daily,
        conversion_rate=0.12,
        renewal_probability=0.80,
    )


def _hublaagram_clientele(initial: int, daily: float) -> ClienteleParams:
    #: Section 5.1: Hublaagram conversion 37%, ~50% long-term; Table 9's
    #: purchase mix sets the propensities.
    return ClienteleParams(
        initial_customers=initial,
        initial_long_term_fraction=0.50,
        daily_new_customers=daily,
        conversion_rate=0.37,
        long_engagement_fraction=0.45,
        free_like_request_share=0.42,
        no_outbound_fraction=0.024,
        monthly_plan_fraction=0.032,
        one_time_package_fraction=0.0005,
    )


def _followersgratis_clientele(initial: int, daily: float) -> ClienteleParams:
    return ClienteleParams(
        initial_customers=initial,
        initial_long_term_fraction=0.30,
        daily_new_customers=daily,
        long_engagement_fraction=0.3,
        free_like_request_share=0.0,  # free follows only
        no_outbound_fraction=0.0,
        monthly_plan_fraction=0.0,
        one_time_package_fraction=0.0,
    )


@dataclass(frozen=True)
class ServicePlans:
    """Per-service clientele parameters (None disables the service)."""

    instalex: ClienteleParams | None = field(default_factory=lambda: _instalex_clientele(60, 2.0))
    instazood: ClienteleParams | None = field(default_factory=lambda: _instalex_clientele(50, 1.8))
    boostgram: ClienteleParams | None = field(default_factory=lambda: _boostgram_clientele(20, 0.5))
    hublaagram: ClienteleParams | None = field(default_factory=lambda: _hublaagram_clientele(250, 8.0))
    followersgratis: ClienteleParams | None = field(
        default_factory=lambda: _followersgratis_clientele(20, 0.5)
    )


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to build and run a Study."""

    seed: int = 42
    population: PopulationConfig = field(
        default_factory=lambda: PopulationConfig(
            size=1200, out_degree=DegreeDistribution(median=30.0, sigma=1.0)
        )
    )
    #: fraction of organic users whose home endpoint is a datacenter/VPN
    #: address inside a service exit ASN — the benign traffic "blended in"
    #: that makes those ASNs mixed (Section 6.2)
    vpn_fraction: float = 0.015
    #: collusion-package quantity scaling (see HublaagramCatalog.scaled)
    quantity_scale: float = 0.1
    #: reciprocity-AAS daily-budget scaling. The paper-scale budgets (tens
    #: of follows per customer per day against 800M candidate accounts)
    #: would exhaust a simulated population's fresh targets; scaling all
    #: budgets uniformly preserves every relative shape (action mixes,
    #: thresholds, reaction dynamics) at simulation scale.
    budget_scale: float = 0.5
    reciprocity: ReciprocityParams = field(default_factory=ReciprocityParams)
    plans: ServicePlans = field(default_factory=ServicePlans)
    #: honeypots per (service, action type) batch
    honeypots_empty_per_batch: int = 4
    honeypots_lived_in_per_batch: int = 1
    #: inactive attribution-baseline accounts
    inactive_honeypots: int = 10
    #: length of the honeypot phase before the measurement window
    honeypot_days: int = 8
    measurement_days: int = 90
    #: Instalex's curated recipient list: the share of its like targets
    #: drawn from the curated pool rather than ordinary targeting
    curated_mix_fraction: float = 0.7
    #: collect repro.obs telemetry (metrics + tick-pinned phase spans).
    #: Telemetry is write-only — simulation results are bit-identical
    #: either way (test-enforced); False skips instrument registration
    #: entirely so hot paths touch shared no-op instruments.
    observability: bool = True
    #: arm services with post-block migration (the Section 6.4 epilogue:
    #: ASN moves, and for the Insta* parent an extensive proxy network).
    #: Off by default — the tabled analyses predate the epilogue.
    enable_migration: bool = False
    #: how long blocking must persist before a service relocates
    migration_patience_days: int = 14

    def __post_init__(self):
        if self.measurement_days < 1 or self.honeypot_days < 1:
            raise ValueError("phase durations must be positive")
        if not 0.0 <= self.vpn_fraction <= 1.0:
            raise ValueError("vpn_fraction must be a probability")
        if self.quantity_scale <= 0:
            raise ValueError("quantity_scale must be positive")
        if self.budget_scale <= 0:
            raise ValueError("budget_scale must be positive")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @staticmethod
    def tiny(seed: int = 42) -> "StudyConfig":
        """Unit-test scale: seconds to run, statistics are rough."""
        return StudyConfig(
            seed=seed,
            population=PopulationConfig(
                size=260,
                out_degree=DegreeDistribution(median=12.0, sigma=0.9),
                # few tags so hashtag audiences stay a usable fraction of
                # the tiny universe
                hashtag_vocabulary=("travel", "food", "fitness", "art", "pets"),
            ),
            plans=ServicePlans(
                instalex=_instalex_clientele(12, 0.8),
                instazood=_instalex_clientele(10, 0.6),
                boostgram=_boostgram_clientele(6, 0.3),
                hublaagram=_hublaagram_clientele(40, 2.0),
                followersgratis=_followersgratis_clientele(8, 0.3),
            ),
            honeypots_empty_per_batch=2,
            honeypots_lived_in_per_batch=1,
            inactive_honeypots=4,
            honeypot_days=4,
            measurement_days=10,
            budget_scale=0.25,
        )

    @staticmethod
    def small(seed: int = 42) -> "StudyConfig":
        """Integration-test scale: ~a minute, shapes hold loosely."""
        return StudyConfig(
            seed=seed,
            population=PopulationConfig(
                size=900,
                out_degree=DegreeDistribution(median=25.0, sigma=1.0),
                hashtag_vocabulary=(
                    "travel", "food", "fitness", "fashion", "art", "music",
                    "pets", "sports",
                ),
            ),
            plans=ServicePlans(
                instalex=_instalex_clientele(40, 1.5),
                instazood=_instalex_clientele(35, 1.2),
                boostgram=_boostgram_clientele(15, 0.4),
                hublaagram=_hublaagram_clientele(150, 5.0),
                followersgratis=_followersgratis_clientele(15, 0.4),
            ),
            honeypots_empty_per_batch=3,
            honeypots_lived_in_per_batch=1,
            inactive_honeypots=6,
            honeypot_days=7,
            measurement_days=30,
            budget_scale=0.35,
        )

    @staticmethod
    def paper_shaped(seed: int = 42) -> "StudyConfig":
        """Benchmark scale: the full 90-day window, several minutes."""
        return StudyConfig(
            seed=seed,
            population=PopulationConfig(
                size=2000, out_degree=DegreeDistribution(median=35.0, sigma=1.05)
            ),
            plans=ServicePlans(
                instalex=_instalex_clientele(70, 2.2),
                instazood=_instalex_clientele(60, 1.8),
                boostgram=_boostgram_clientele(25, 0.5),
                hublaagram=_hublaagram_clientele(400, 10.0),
                followersgratis=_followersgratis_clientele(25, 0.5),
            ),
            honeypots_empty_per_batch=4,
            honeypots_lived_in_per_batch=1,
            inactive_honeypots=10,
            honeypot_days=8,
            measurement_days=90,
            budget_scale=0.5,
        )

    def with_measurement_days(self, days_: int) -> "StudyConfig":
        return replace(self, measurement_days=days_)


#: preset name -> config factory: the CLI's ``--preset`` choices and
#: the names a sweep manifest may give
PRESETS: dict[str, Callable[..., StudyConfig]] = {
    "tiny": StudyConfig.tiny,
    "small": StudyConfig.small,
    "paper": StudyConfig.paper_shaped,
}


def resolve_workers(cli_value: int | None = None) -> int:
    """Worker-process count for fleet runs: CLI flag, env, or 1.

    Precedence: an explicit ``--workers`` value wins, then the
    ``REPRO_WORKERS`` environment variable, then a single worker.
    Lives here because this module is the sanctioned home for
    environment reads (its DET006 allowlist entry in
    ``tests/test_source_rules.py``); worker count only
    scales wall-clock fan-out — merged fleet output is byte-identical
    for any value (see :mod:`repro.fleet.runner`).
    """
    import os

    if cli_value is not None:
        if cli_value < 1:
            raise ValueError("--workers must be >= 1")
        return cli_value
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value
