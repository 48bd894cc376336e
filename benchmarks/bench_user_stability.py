"""Section 5.1 "User Stability": birth/death rates, daily active
long-term customers, and the long-term conversion rate.

Paper findings: Boostgram and Hublaagram shrank slightly over the
window, Insta* grew by more than 10%; conversion rates were stable at
12% (Boostgram), 21% (Insta*), 37% (Hublaagram) — ordered by price
(Boostgram, the most expensive, converts worst).
"""

from conftest import emit

from repro.core.study import INSTA_STAR
from repro.util.tables import format_table


def _stability_rows(dataset):
    rows = []
    for name, analytics in dataset.analytics.items():
        rates = analytics.birth_death_rates(window_days=7)
        conversion = analytics.conversion_rate(
            cohort_start_day=dataset.start_day, cohort_days=30
        )
        series = analytics.daily_active_long_term()
        days_sorted = sorted(series)
        first_week = [series[d] for d in days_sorted[:7]]
        last_week = [series[d] for d in days_sorted[-7:]]
        rows.append(
            {
                "service": name,
                "births_per_week": rates["birth_rate"],
                "deaths_per_week": rates["death_rate"],
                "conversion_rate": conversion,
                "active_lt_first_week": sum(first_week) / max(len(first_week), 1),
                "active_lt_last_week": sum(last_week) / max(len(last_week), 1),
            }
        )
    return rows


def test_user_stability(benchmark, bench_dataset):
    rows = benchmark(_stability_rows, bench_dataset)
    emit(
        format_table(
            ["service", "births/wk", "deaths/wk", "conversion", "active LT (wk 1)", "active LT (last wk)"],
            [
                [
                    r["service"],
                    f"{r['births_per_week']:.1f}",
                    f"{r['deaths_per_week']:.1f}",
                    f"{r['conversion_rate']:.1%}",
                    f"{r['active_lt_first_week']:.0f}",
                    f"{r['active_lt_last_week']:.0f}",
                ]
                for r in rows
            ],
            title="Section 5.1: user stability",
        )
    )
    by_service = {r["service"]: r for r in rows}

    # churn exists on both sides for every service
    for row in rows:
        assert row["births_per_week"] > 0
        assert row["deaths_per_week"] >= 0

    # conversion ordering follows price: Boostgram (priciest) converts
    # worst; Hublaagram (free tier) converts best (paper: 12/21/37%)
    assert (
        by_service["Boostgram"]["conversion_rate"]
        < by_service[INSTA_STAR]["conversion_rate"]
        < by_service["Hublaagram"]["conversion_rate"]
    )

    # the long-term stock persists through the window for every service
    for row in rows:
        assert row["active_lt_last_week"] > 0
