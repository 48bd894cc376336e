"""The brute-force reference sweep of the AAS classifier.

:func:`sweep` and :func:`benign_records` match every record of a tick
window against the signature list — first matching signature wins —
with no memo and no per-service streams. They take any records in log
order, so the streaming suite can compare a classifier bound to a log
against them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.detection.classifier import AttributedActivity
from repro.detection.signals import ServiceSignature
from repro.platform.models import ActionStatus
from tests.oracles.actionlog import ActionRecord


def attribute(signatures: Sequence[ServiceSignature], record: ActionRecord) -> Optional[str]:
    """The first signature matching ``record``, or None."""
    for signature in signatures:
        if signature.matches(record):
            return signature.service
    return None


def _window(
    records: Iterable[ActionRecord], start_tick: int, end_tick: Optional[int]
) -> list[ActionRecord]:
    return [
        r for r in records
        if r.tick >= start_tick and (end_tick is None or r.tick < end_tick)
    ]


def sweep(
    signatures: Sequence[ServiceSignature],
    records: Iterable[ActionRecord],
    start_tick: int = 0,
    end_tick: Optional[int] = None,
    include_blocked: bool = True,
) -> dict[str, AttributedActivity]:
    """Every record of the window attributed to its service, in order."""
    out = {
        s.service: AttributedActivity(service=s.service, service_type=s.service_type)
        for s in signatures
    }
    for record in _window(records, start_tick, end_tick):
        if not include_blocked and record.status is ActionStatus.BLOCKED:
            continue
        service = attribute(signatures, record)
        if service is not None:
            out[service].records.append(record)
    return out


def benign_records(
    signatures: Sequence[ServiceSignature],
    records: Iterable[ActionRecord],
    start_tick: int = 0,
    end_tick: Optional[int] = None,
) -> list[ActionRecord]:
    """The records of the window that match no signature, in order."""
    return [
        r for r in _window(records, start_tick, end_tick)
        if attribute(signatures, r) is None
    ]
