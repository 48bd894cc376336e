"""Per-ASN activity thresholds (paper Section 6.2).

"For ASNs with both AAS and benign traffic, we measure the daily 99th
percentile of likes and follows produced by Instagram accounts that are
not participating in AASs. ... For ASNs with only AAS traffic, we use a
threshold of the daily 25th percentile of actions since there is no
legitimate user traffic from those ASNs."

Thresholds are computed once at experiment start and frozen, "to prevent
an adversary from affecting the false positive rate".

For collusion networks, the per-account counter that the threshold
applies to is the *recipient's inbound* count (the paper tracks "the
number of inbound actions from accounts used by the Collusion Network
AAS"); for reciprocity services it is the actor's outbound count. Each
threshold entry records which subject it counts.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.platform.columns import ActionView
from repro.platform.models import ActionStatus, ActionType
from repro.util.stats import percentile

#: The action types interventions covered.
INTERVENTION_TYPES = (ActionType.LIKE, ActionType.FOLLOW)

MIXED_ASN_PERCENTILE = 99.0
PURE_ASN_PERCENTILE = 25.0


class CountSubject(enum.Enum):
    """Whose daily counter a threshold applies to."""

    ACTOR = "actor"
    TARGET = "target"


@dataclass(frozen=True)
class ThresholdEntry:
    """One (ASN, action type) activity threshold."""

    asn: int
    action_type: ActionType
    daily_limit: float
    subject: CountSubject
    mixed_asn: bool

    def __post_init__(self):
        if self.daily_limit < 0:
            raise ValueError("daily limit must be non-negative")


@dataclass
class ThresholdTable:
    """Lookup of frozen thresholds keyed by (asn, action type)."""

    entries: dict[tuple[int, ActionType], ThresholdEntry] = field(default_factory=dict)

    def add(self, entry: ThresholdEntry) -> None:
        key = (entry.asn, entry.action_type)
        if key in self.entries:
            raise ValueError(f"duplicate threshold for {key}")
        self.entries[key] = entry

    def get(self, asn: int, action_type: ActionType) -> ThresholdEntry | None:
        return self.entries.get((asn, action_type))

    def __len__(self) -> int:
        return len(self.entries)


def _daily_counts(
    records: Iterable[ActionView],
    action_type: ActionType,
    subject: CountSubject,
    asn: int | None = None,
) -> list[int]:
    """Per-(account, day) action counts, optionally restricted to one ASN."""
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for record in records:
        if record.action_type is not action_type:
            continue
        if record.status is ActionStatus.BLOCKED:
            continue
        if asn is not None and record.endpoint.asn != asn:
            continue
        if subject is CountSubject.ACTOR:
            account = record.actor
        else:
            if record.target_account is None:
                continue
            account = record.target_account
        counts[(account, record.day)] += 1
    return list(counts.values())


def compute_thresholds(
    aas_records: Iterable[ActionView],
    benign_records: Iterable[ActionView],
    subject_by_asn: dict[int, CountSubject],
    action_types: tuple[ActionType, ...] = INTERVENTION_TYPES,
) -> ThresholdTable:
    """Build the frozen threshold table for the AAS-associated ASNs.

    ``aas_records``: attributed service activity in the calibration
    window. ``benign_records``: everything the classifier considers
    legitimate, platform-wide (it is filtered per ASN here).
    ``subject_by_asn``: whose counter each service ASN thresholds —
    ACTOR for reciprocity services' exits, TARGET for collusion exits.
    """
    aas_records = list(aas_records)
    benign_records = list(benign_records)
    table = ThresholdTable()
    benign_by_asn: dict[int, list[ActionView]] = defaultdict(list)
    for record in benign_records:
        benign_by_asn[record.endpoint.asn].append(record)
    for asn, subject in subject_by_asn.items():
        for action_type in action_types:
            benign_here = benign_by_asn.get(asn, [])
            # Benign volume is counted on the benign users' own actions
            # regardless of subject — it bounds false positives on
            # legitimate accounts in that ASN.
            benign_counts = _daily_counts(benign_here, action_type, CountSubject.ACTOR)
            if benign_counts:
                limit = percentile(benign_counts, MIXED_ASN_PERCENTILE)
                mixed = True
            else:
                aas_counts = _daily_counts(aas_records, action_type, subject, asn=asn)
                if not aas_counts:
                    continue  # nothing to threshold on this (asn, type)
                limit = percentile(aas_counts, PURE_ASN_PERCENTILE)
                mixed = False
            table.add(
                ThresholdEntry(
                    asn=asn,
                    action_type=action_type,
                    daily_limit=limit,
                    subject=subject,
                    mixed_asn=mixed,
                )
            )
    return table
