"""Post-hoc intervention time series (paper Figures 5-7).

All metrics replay the action log against the frozen threshold table,
reproducing exactly the counting the live policy performed (attempts per
subject per day, limits looked up per record ASN), so "eligible" here
means precisely "the policy would have acted had the bin been treated".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.interventions.bins import BinAssignment
from repro.interventions.thresholds import CountSubject, ThresholdTable
from repro.platform.columns import ActionView
from repro.platform.models import AccountId, ActionType
from repro.util.stats import median


def _subject_of(record: ActionView, subject: CountSubject) -> AccountId | None:
    if subject is CountSubject.ACTOR:
        return record.actor
    return record.target_account


def eligible_flags(
    records: Sequence[ActionView], thresholds: ThresholdTable
) -> list[tuple[ActionView, AccountId, bool]]:
    """Replay of the policy's counting over ``records`` (log order).

    Returns (record, subject, eligible) for every record covered by a
    threshold entry; records from un-thresholded ASNs are skipped.
    """
    attempts: dict[tuple[AccountId, ActionType, int], int] = defaultdict(int)
    out = []
    for record in records:
        entry = thresholds.get(record.endpoint.asn, record.action_type)
        if entry is None:
            continue
        subject = _subject_of(record, entry.subject)
        if subject is None:
            continue
        key = (subject, record.action_type, record.day)
        attempts[key] += 1
        out.append((record, subject, attempts[key] > entry.daily_limit))
    return out


def median_daily_actions_series(
    records: Sequence[ActionView],
    assignment: BinAssignment,
    action_type: ActionType,
    subject: CountSubject,
    start_day: int,
    end_day: int,
) -> dict[str, dict[int, float]]:
    """Figure 5: median attempted actions per participating user per day.

    Attempts include blocked ones — the series shows what the service
    *tried*, which is where its adaptation is visible. Grouped by the
    experiment treatment of each account ("block"/"delay"/"control"/
    "untreated").
    """
    if end_day <= start_day:
        raise ValueError("end_day must exceed start_day")
    per_user_day: dict[tuple[str, int], dict[AccountId, int]] = defaultdict(lambda: defaultdict(int))
    for record in records:
        if record.action_type is not action_type:
            continue
        account = _subject_of(record, subject)
        if account is None:
            continue
        if not start_day <= record.day < end_day:
            continue
        group = assignment.group_of(account)
        per_user_day[(group, record.day)][account] += 1
    series: dict[str, dict[int, float]] = defaultdict(dict)
    for (group, day), counts in per_user_day.items():
        series[group][day] = median(list(counts.values()))
    return dict(series)


def eligible_proportion_series(
    records: Sequence[ActionView],
    thresholds: ThresholdTable,
    action_type: ActionType,
    start_day: int,
    end_day: int,
) -> dict[int, float]:
    """Figure 6: per day, the fraction of the service's actions that sit
    above the threshold (i.e. are candidates for a countermeasure)."""
    flagged = eligible_flags(records, thresholds)
    totals: dict[int, int] = defaultdict(int)
    eligible: dict[int, int] = defaultdict(int)
    for record, _, is_eligible in flagged:
        if record.action_type is not action_type:
            continue
        if not start_day <= record.day < end_day:
            continue
        totals[record.day] += 1
        if is_eligible:
            eligible[record.day] += 1
    return {day: eligible[day] / totals[day] for day in sorted(totals) if totals[day] > 0}


def eligible_share_by_group(
    records: Sequence[ActionView],
    thresholds: ThresholdTable,
    assignment: BinAssignment,
    action_type: ActionType,
    start_day: int,
    end_day: int,
    period_days: int = 7,
) -> dict[int, dict[str, float]]:
    """Figure 7: per period, each treatment group's share of the
    above-threshold actions (control holds ~10% throughout)."""
    if period_days < 1:
        raise ValueError("period_days must be positive")
    flagged = eligible_flags(records, thresholds)
    per_period: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for record, subject, is_eligible in flagged:
        if record.action_type is not action_type or not is_eligible:
            continue
        if not start_day <= record.day < end_day:
            continue
        period = (record.day - start_day) // period_days
        group = assignment.group_of(subject)
        per_period[period][group] += 1
    out: dict[int, dict[str, float]] = {}
    for period, counts in sorted(per_period.items()):
        total = sum(counts.values())
        out[period] = {group: n / total for group, n in counts.items()}
    return out
