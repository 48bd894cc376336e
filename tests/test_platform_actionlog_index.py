"""Property-style tests: the ActionLog indices equal brute force.

For randomly generated append sequences in tick order (the only order
the log accepts), every indexed window query must return exactly what a
linear filter over the raw record list returns, in the same order. The
rejection of out-of-order appends is ``tests/test_platform_actionlog_order.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util import derive_rng
from tests.oracles.actionlog import ActionRecord

ACTORS = list(range(1, 9))
TARGETS = list(range(1, 12))
ASNS = [64512, 64513, 64700]
VARIANTS = ["stock", "aas-one", "aas-two"]
ACTION_TYPES = list(ActionType)
STATUSES = [ActionStatus.DELIVERED, ActionStatus.BLOCKED]


def _random_log(rng: np.random.Generator, n: int) -> ActionLog:
    log = ActionLog()
    tick = 0
    for _ in range(n):
        tick += int(rng.integers(0, 3))
        endpoint = ClientEndpoint(
            address=int(rng.integers(1, 50)),
            asn=ASNS[int(rng.integers(0, len(ASNS)))],
            fingerprint=DeviceFingerprint(
                family="android", variant=VARIANTS[int(rng.integers(0, len(VARIANTS)))]
            ),
        )
        log.append(
            ActionRecord(
                action_id=log.next_id(),
                action_type=ACTION_TYPES[int(rng.integers(0, len(ACTION_TYPES)))],
                actor=ACTORS[int(rng.integers(0, len(ACTORS)))],
                tick=tick,
                endpoint=endpoint,
                api=ApiSurface.PRIVATE_MOBILE,
                status=STATUSES[int(rng.integers(0, len(STATUSES)))],
                target_account=(
                    None
                    if rng.random() < 0.1
                    else TARGETS[int(rng.integers(0, len(TARGETS)))]
                ),
            )
        )
    return log


def _windows(rng: np.random.Generator, count: int) -> list[tuple[int | None, int | None]]:
    windows: list[tuple[int | None, int | None]] = [(None, None), (0, 0), (0, None)]
    for _ in range(count):
        lo = int(rng.integers(0, 42))
        hi = int(rng.integers(0, 42))
        windows.append((min(lo, hi), max(lo, hi)))
        windows.append((lo, None))
        windows.append((None, hi))
    return windows


def _in_window(record: ActionRecord, start: int | None, end: int | None) -> bool:
    if start is not None and record.tick < start:
        return False
    if end is not None and record.tick >= end:
        return False
    return True


@pytest.mark.parametrize("monotonic", [True], ids=["monotonic"])
@pytest.mark.parametrize("seed_label", ["a", "b", "c"])
def test_window_queries_equal_brute_force(monotonic: bool, seed_label: str) -> None:
    rng = derive_rng(99, f"actionlog-{seed_label}-{monotonic}")
    log = _random_log(rng, n=300)
    records = list(log)

    for start, end in _windows(rng, 6):
        expected = [r for r in records if _in_window(r, start, end)]
        assert log.records_between(start, end) == expected

        for actor in ACTORS:
            assert log.by_actor_between(actor, start, end) == [
                r for r in expected if r.actor == actor
            ]
        for target in TARGETS:
            assert log.by_target_between(target, start, end) == [
                r for r in expected if r.target_account == target
            ]
        for asn in ASNS:
            for variant in VARIANTS:
                assert log.by_signature(asn, variant, None, start, end) == [
                    r
                    for r in expected
                    if r.endpoint.asn == asn and r.endpoint.fingerprint.variant == variant
                ]
                for action_type in ACTION_TYPES:
                    assert log.by_signature(asn, variant, action_type, start, end) == [
                        r
                        for r in expected
                        if r.endpoint.asn == asn
                        and r.endpoint.fingerprint.variant == variant
                        and r.action_type is action_type
                    ]


@pytest.mark.parametrize("monotonic", [True], ids=["monotonic"])
def test_select_and_daily_count_equal_brute_force(monotonic: bool) -> None:
    rng = derive_rng(7, f"actionlog-select-{monotonic}")
    log = _random_log(rng, n=250)
    records = list(log)

    for action_type in ACTION_TYPES:
        assert log.select(action_type=action_type, start_tick=5, end_tick=30) == [
            r for r in records if r.action_type is action_type and 5 <= r.tick < 30
        ]
    for actor in ACTORS:
        for day in range(3):
            expected = sum(
                1
                for r in records
                if r.actor == actor
                and day * 24 <= r.tick < (day + 1) * 24
                and r.status is not ActionStatus.BLOCKED
            )
            assert log.daily_count(actor, day) == expected


def test_observer_sees_every_append_once() -> None:
    log = ActionLog()
    seen: list[int] = []
    log.add_observer(lambda _cols, start, end: seen.extend(range(start, end)))
    rng = derive_rng(14, "actionlog-observer")
    endpoint = ClientEndpoint(1, ASNS[0], DeviceFingerprint("android"))
    tick = 0
    for _ in range(20):
        tick += int(rng.integers(0, 3))
        log.append(
            ActionRecord(
                action_id=log.next_id(),
                action_type=ActionType.LIKE,
                actor=1,
                tick=tick,
                endpoint=endpoint,
                api=ApiSurface.PRIVATE_MOBILE,
                status=ActionStatus.DELIVERED,
                target_account=2,
            )
        )
    assert seen == list(range(20))
