"""One function per paper table and figure.

Each function returns plain row dicts (JSON-friendly) so benchmarks,
tests, and reporting all consume the same structures. The per-experiment
module/bench mapping lives in DESIGN.md's experiment index.
"""

from __future__ import annotations

from typing import Any

from repro.aas.base import ServiceType
from repro.aas.collusion_service import CollusionNetworkService
from repro.aas.pricing import (
    BOOSTGRAM_PRICING,
    FollowersgratisCatalog,
    INSTALEX_PRICING,
    INSTAZOOD_PRICING,
    SubscriptionPricing,
)
from repro.analysis.actions_mix import action_mix
from repro.analysis.geography import country_shares
from repro.analysis.revenue import (
    estimate_hublaagram_revenue,
    estimate_reciprocity_revenue,
)
from repro.analysis.target_bias import (
    degree_cdfs,
    sample_receiving_accounts,
    sample_targeted_accounts,
)
from repro.core.study import INSTA_STAR, InterventionOutcome, MeasurementDataset, Study
from repro.honeypot.experiments import ReciprocationResult
from repro.interventions.metrics import (
    eligible_proportion_series,
    eligible_share_by_group,
    median_daily_actions_series,
)
from repro.interventions.thresholds import CountSubject
from repro.platform.models import ActionType

ACTION_COLUMNS = (
    ActionType.LIKE,
    ActionType.FOLLOW,
    ActionType.COMMENT,
    ActionType.POST,
    ActionType.UNFOLLOW,
)


# ----------------------------------------------------------------------
# Table 1 — services offered
# ----------------------------------------------------------------------

def table1_services(study: Study) -> list[dict[str, Any]]:
    rows = []
    for name, service in study.services.items():
        row: dict[str, Any] = {
            "service": name,
            "type": service.descriptor.service_type.value,
        }
        for action_type in ACTION_COLUMNS:
            row[action_type.value] = action_type in service.descriptor.offered_actions
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Tables 2-4 — price lists
# ----------------------------------------------------------------------

def table2_reciprocity_pricing() -> list[dict[str, Any]]:
    def row(name: str, pricing: SubscriptionPricing) -> dict[str, Any]:
        return {
            "service": name,
            "trial_days": pricing.trial_days_advertised,
            "trial_days_actual": pricing.trial_days_actual,
            "min_paid_days": pricing.min_paid_days,
            "cost_usd": pricing.cost_cents / 100.0,
        }

    return [
        row("Instalex", INSTALEX_PRICING),
        row("Instazood", INSTAZOOD_PRICING),
        row("Boostgram", BOOSTGRAM_PRICING),
    ]


def table3_hublaagram_pricing(study: Study) -> list[dict[str, Any]]:
    service = study.services["Hublaagram"]
    assert isinstance(service, CollusionNetworkService)
    catalog = service.config.catalog
    rows: list[dict[str, Any]] = [
        {
            "description": "No collusion network",
            "cost_usd": catalog.no_collusion_fee_cents / 100.0,
            "duration": "Life",
        }
    ]
    for package in catalog.one_time_packages:
        rows.append(
            {
                "description": f"{package.likes} likes (scaled)",
                "cost_usd": package.cost_cents / 100.0,
                "duration": "Immediate",
            }
        )
    for tier in catalog.monthly_tiers:
        rows.append(
            {
                "description": f"{tier.likes_low}-{tier.likes_high} likes/photo (scaled)",
                "cost_usd": tier.cost_cents / 100.0,
                "duration": "Month",
            }
        )
    return rows


def table4_followersgratis_pricing() -> list[dict[str, Any]]:
    return [
        {
            "description": option.description,
            "cost_usd": option.cost_cents / 100.0,
            "duration_days": option.duration_days,
        }
        for option in FollowersgratisCatalog().options
    ]


# ----------------------------------------------------------------------
# Table 5 — reciprocation probabilities
# ----------------------------------------------------------------------

def table5_reciprocation(results: list[ReciprocationResult]) -> list[dict[str, Any]]:
    rows = []
    for result in results:
        rows.append(
            {
                "service": result.service,
                "kind": result.kind.value,
                "outbound": result.outbound_type.value,
                "outbound_count": result.outbound_count,
                "inbound_like_ratio": result.like_ratio,
                "inbound_follow_ratio": result.follow_ratio,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 6 — customer base
# ----------------------------------------------------------------------

def table6_customers(dataset: MeasurementDataset) -> list[dict[str, Any]]:
    rows = []
    for name, analytics in dataset.analytics.items():
        long_term = analytics.long_term_customers()
        total = analytics.total_customers()
        rows.append(
            {
                "service": name,
                "customers": total,
                "long_term": len(long_term),
                "long_term_pct": len(long_term) / total if total else 0.0,
                "short_term": total - len(long_term),
                "long_term_action_share": analytics.long_term_action_share(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 7 — service locations
# ----------------------------------------------------------------------

def table7_locations(study: Study, dataset: MeasurementDataset) -> list[dict[str, Any]]:
    operating = {
        "Instalex": "RUS",
        "Instazood": "RUS",
        "Boostgram": "USA",
        "Hublaagram": "IDN",
        "Followersgratis": "IDN",
    }
    merged_operating = {INSTA_STAR: "RUS", "Boostgram": "USA", "Hublaagram": "IDN"}
    rows = []
    for name, analytics in dataset.analytics.items():
        asns = dataset.service_asns.get(name, set())
        countries = sorted({study.registry.country_of_asn(asn) for asn in asns})
        rows.append(
            {
                "service": name,
                "operating_country": merged_operating.get(name, operating.get(name, "?")),
                "asn_locations": countries,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Tables 8-10 — revenue
# ----------------------------------------------------------------------

def table8_reciprocity_revenue(study: Study, dataset: MeasurementDataset) -> list[dict[str, Any]]:
    rows = []
    window = dataset.window_days
    if "Boostgram" in dataset.analytics:
        estimate = estimate_reciprocity_revenue(
            dataset.analytics["Boostgram"], BOOSTGRAM_PRICING, window
        )
        truth = _ledger_monthly_cents(study, ("Boostgram",), dataset)
        rows.append(_revenue_row("Boostgram", estimate, truth))
    if INSTA_STAR in dataset.analytics:
        low = estimate_reciprocity_revenue(dataset.analytics[INSTA_STAR], INSTAZOOD_PRICING, window)
        high = estimate_reciprocity_revenue(dataset.analytics[INSTA_STAR], INSTALEX_PRICING, window)
        truth = _ledger_monthly_cents(study, ("Instalex", "Instazood"), dataset)
        rows.append(_revenue_row(f"{INSTA_STAR} (Low)", low, truth))
        rows.append(_revenue_row(f"{INSTA_STAR} (High)", high, truth))
    return rows


def _revenue_row(label, estimate, truth_cents) -> dict[str, Any]:
    return {
        "service": label,
        "paying_accounts": estimate.paying_accounts,
        "fee": estimate.fee_description,
        "est_monthly_usd": estimate.monthly_revenue_cents / 100.0,
        "true_monthly_usd": truth_cents / 100.0,
    }


def _ledger_monthly_cents(study: Study, service_names, dataset: MeasurementDataset) -> int:
    total = 0
    for name in service_names:
        service = study.services.get(name)
        if service is None:
            continue
        total += service.ledger.total_cents(dataset.start_tick, dataset.end_tick)
    return int(round(total * 30.0 / max(dataset.window_days, 1)))


def table9_hublaagram_revenue(study: Study, dataset: MeasurementDataset) -> dict[str, Any]:
    service = study.services["Hublaagram"]
    assert isinstance(service, CollusionNetworkService)
    activity = dataset.attributed["Hublaagram"]
    estimate = estimate_hublaagram_revenue(
        activity,
        service.config.catalog,
        free_like_ceiling_per_hour=service.config.free_like_ceiling_per_hour,
        likes_per_free_request=service.config.likes_per_free_request,
        follows_per_free_request=service.config.follows_per_free_request,
        window_days=dataset.window_days,
    )
    truth_cents = service.ledger.total_cents(dataset.start_tick, dataset.end_tick)
    return {
        "no_outbound_accounts": estimate.no_outbound_accounts,
        "no_outbound_usd": estimate.no_outbound_cents / 100.0,
        "one_time_like_buyers": estimate.one_time_like_buyers,
        "one_time_like_usd": estimate.one_time_like_cents / 100.0,
        "monthly_tier_accounts": estimate.monthly_tier_accounts,
        "monthly_tier_usd": {k: v / 100.0 for k, v in estimate.monthly_tier_cents.items()},
        "ad_impressions": estimate.ad_impressions,
        "ad_usd_low": estimate.ad_cents_low / 100.0,
        "ad_usd_high": estimate.ad_cents_high / 100.0,
        "monthly_total_usd_low": estimate.monthly_total_low_cents / 100.0,
        "monthly_total_usd_high": estimate.monthly_total_high_cents / 100.0,
        "true_window_revenue_usd": truth_cents / 100.0,
    }


def table10_renewals(study: Study, dataset: MeasurementDataset) -> list[dict[str, Any]]:
    """New vs preexisting payer revenue over the window's final month."""
    window_start = max(dataset.start_tick, dataset.end_tick - 30 * 24)
    groups = {
        INSTA_STAR: ("Instalex", "Instazood"),
        "Boostgram": ("Boostgram",),
        "Hublaagram": ("Hublaagram",),
    }
    rows = []
    for label, names in groups.items():
        new_cents = 0
        pre_cents = 0
        for name in names:
            service = study.services.get(name)
            if service is None:
                continue
            split = service.ledger.new_vs_preexisting_split(window_start, dataset.end_tick - window_start)
            new_cents += split["new"]
            pre_cents += split["preexisting"]
        total = new_cents + pre_cents
        if total == 0:
            continue
        rows.append(
            {
                "service": label,
                "new_pct": new_cents / total,
                "preexisting_pct": pre_cents / total,
                "total_usd": total / 100.0,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 11 — action mix
# ----------------------------------------------------------------------

def table11_action_mix(dataset: MeasurementDataset) -> list[dict[str, Any]]:
    rows = []
    for name, activity in dataset.attributed.items():
        if name == "Followersgratis":
            continue
        mix = action_mix(activity)
        row: dict[str, Any] = {"service": name}
        for action_type in ACTION_COLUMNS:
            row[action_type.value] = mix.get(action_type, 0.0)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 2 — customer geography
# ----------------------------------------------------------------------

def fig2_geography(study: Study, dataset: MeasurementDataset) -> dict[str, list[tuple[str, float]]]:
    out = {}
    for name, analytics in dataset.analytics.items():
        asns = dataset.service_asns.get(name, set())
        counts = analytics.customer_countries(study.platform, study.geoip, asns)
        out[name] = country_shares(counts)
    return out


# ----------------------------------------------------------------------
# Figures 3-4 — target degree bias
# ----------------------------------------------------------------------

def fig34_target_bias(study: Study, dataset: MeasurementDataset, sample_size: int = 1000) -> dict[str, Any]:
    rng = study.seeds.fresh("fig34-sampling")
    out: dict[str, Any] = {}
    assert study.classifier is not None
    benign = study.classifier.benign_records(dataset.start_tick, dataset.end_tick)
    baseline = sample_receiving_accounts(
        benign, rng, sample_size, dataset.start_tick, dataset.end_tick
    )
    base_out, base_in = degree_cdfs(study.platform, baseline)
    out["baseline"] = {
        "n": len(baseline),
        "median_out_degree": base_out.median(),
        "median_in_degree": base_in.median(),
        "out_cdf": base_out.series(25),
        "in_cdf": base_in.series(25),
    }
    for name, activity in dataset.attributed.items():
        if activity.service_type is not ServiceType.RECIPROCITY_ABUSE:
            continue
        sample = sample_targeted_accounts(activity, rng, sample_size)
        if not sample:
            continue
        cdf_out, cdf_in = degree_cdfs(study.platform, sample)
        out[name] = {
            "n": len(sample),
            "median_out_degree": cdf_out.median(),
            "median_in_degree": cdf_in.median(),
            "out_cdf": cdf_out.series(25),
            "in_cdf": cdf_in.series(25),
        }
    return out


# ----------------------------------------------------------------------
# Figures 5-7 — interventions
# ----------------------------------------------------------------------

def fig5_median_follows(outcome: InterventionOutcome, service: str = "Boostgram") -> dict[str, Any]:
    activity = outcome.attributed[service]
    series = median_daily_actions_series(
        activity.records,
        outcome.assignment,
        ActionType.FOLLOW,
        CountSubject.ACTOR,
        outcome.start_day,
        outcome.end_day,
    )
    thresholds = [
        entry.daily_limit
        for entry in outcome.thresholds.entries.values()
        if entry.action_type is ActionType.FOLLOW and entry.asn in activity.observed_asns
    ]
    return {
        "service": service,
        "threshold": min(thresholds) if thresholds else None,
        "series": {group: dict(sorted(days.items())) for group, days in series.items()},
    }


def fig6_hublaagram_likes(outcome: InterventionOutcome) -> dict[str, Any]:
    activity = outcome.attributed["Hublaagram"]
    series = eligible_proportion_series(
        activity.records,
        outcome.thresholds,
        ActionType.LIKE,
        outcome.start_day,
        outcome.end_day,
    )
    return {"service": "Hublaagram", "series": dict(sorted(series.items()))}


def fig7_broad_follows(outcome: InterventionOutcome, service: str = "Boostgram") -> dict[str, Any]:
    activity = outcome.attributed[service]
    shares = eligible_share_by_group(
        activity.records,
        outcome.thresholds,
        outcome.assignment,
        ActionType.FOLLOW,
        outcome.start_day,
        outcome.end_day,
        period_days=7,
    )
    daily = eligible_proportion_series(
        activity.records,
        outcome.thresholds,
        ActionType.FOLLOW,
        outcome.start_day,
        outcome.end_day,
    )
    return {
        "service": service,
        "switch_day": outcome.switch_day,
        "weekly_group_shares": shares,
        "daily_eligible_proportion": dict(sorted(daily.items())),
    }


def render_study_report(study: Study, dataset: MeasurementDataset) -> str:
    """The full run-study report: every business table and figure.

    One canonical assembly shared by the CLI's ``run-study`` command and
    the fleet ``report`` arm, so a multi-seed fleet replica emits
    byte-identical sections to a serial ``python -m repro run-study`` of
    the same config.
    """
    from repro.core import reporting as R

    sections = [
        R.render_table1(table1_services(study)),
        R.render_table2(table2_reciprocity_pricing()),
        R.render_table3(table3_hublaagram_pricing(study)),
        R.render_table4(table4_followersgratis_pricing()),
        R.render_table5(table5_reciprocation(study.reciprocation_results)),
        R.render_table6(table6_customers(dataset)),
        R.render_table7(table7_locations(study, dataset)),
        R.render_table8(table8_reciprocity_revenue(study, dataset)),
        R.render_table9(table9_hublaagram_revenue(study, dataset)),
        R.render_table10(table10_renewals(study, dataset)),
        R.render_table11(table11_action_mix(dataset)),
        R.render_fig2(fig2_geography(study, dataset)),
        R.render_fig34(fig34_target_bias(study, dataset, sample_size=500)),
    ]
    return "\n\n".join(sections)
