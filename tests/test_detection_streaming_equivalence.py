"""Property tests: streaming attribution equals the brute-force sweep.

An :class:`AASClassifier` bound to a production :class:`ActionLog`
attributes every row on append; its sweeps and benign pools must equal
the reference sweep of ``tests/oracles/classifier.py`` over
``list(log)`` — same action ids per service, in the same order. The
logs are built from a random mix of scalar ``log_action`` calls and
``append_batch`` rows (so both the per-row and the bulk observer run),
with some BLOCKED rows and signatures that overlap, so first-match-wins
decides the service of the shared endpoints.

Three binding histories are covered: bound to an empty log, bound
midway (the rows already logged are ingested at construction), and
detached and replaced by a new classifier (the signature-relearning
path), after which the detached one still answers over the rows it
saw.
"""

from __future__ import annotations

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.signals import ServiceSignature
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.obs import Observability
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util.rng import derive_rng

from tests.oracles import classifier as oracle

ASNS = (100, 200, 300)
VARIANTS = ("aas-a", "aas-b", "stock")
#: two exit IPs per (ASN, variant): rows from either must attribute alike
ENDPOINTS = tuple(
    ClientEndpoint(0x0A000000 + 16 * i + ip, asn, DeviceFingerprint("android", variant))
    for i, (asn, variant) in enumerate((a, v) for a in ASNS for v in VARIANTS)
    for ip in range(2)
)


def _sig(service: str, service_type: ServiceType, asns=(), variants=()) -> ServiceSignature:
    return ServiceSignature(service, service_type, frozenset(asns), frozenset(variants))


#: overlapping on purpose: (100, aas-a) matches Wide and Narrow, (100,
#: aas-b) Narrow and AnyAsn, (300, aas-b) AnyAsn and AsnOnly; AnyAsn and
#: AsnOnly leave one feature open
SIGNATURES = (
    _sig("Wide", ServiceType.RECIPROCITY_ABUSE, {100, 200}, {"aas-a"}),
    _sig("Narrow", ServiceType.COLLUSION_NETWORK, {100}, {"aas-a", "aas-b"}),
    _sig("AnyAsn", ServiceType.RECIPROCITY_ABUSE, (), {"aas-b"}),
    _sig("AsnOnly", ServiceType.COLLUSION_NETWORK, {300}, ()),
)
#: what a relearn hands the replacement classifier: another order (so
#: first-match-wins resolves the overlaps differently) and a changed set
RELEARNED = (
    SIGNATURES[2],
    _sig("Narrow", ServiceType.COLLUSION_NETWORK, {100, 200}, {"aas-a", "aas-b"}),
    SIGNATURES[0],
)


def _row(rng, tick: int) -> tuple:
    """One ``log_action`` argument tuple."""
    action_type = (ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT)[
        int(rng.integers(0, 3))
    ]
    status = ActionStatus.BLOCKED if rng.random() < 0.2 else ActionStatus.DELIVERED
    return (
        action_type,
        int(rng.integers(1, 12)),
        tick,
        ENDPOINTS[int(rng.integers(0, len(ENDPOINTS)))],
        ApiSurface.PRIVATE_MOBILE,
        status,
        int(rng.integers(1, 12)) if rng.random() < 0.8 else None,
        None,
        "nice" if action_type is ActionType.COMMENT else None,
    )


def _script(seed: int, steps: int = 90) -> list[tuple[str, list]]:
    """In-tick-order ops: ("scalar", [row]) or ("batch", rows).

    Batches repeat one endpoint for a run of rows, the shape of an AAS
    delivery burst, so the bulk observer crosses service boundaries
    both within and between batches.
    """
    rng = derive_rng(seed, "streaming-equivalence")
    ops = []
    tick = 0
    for _ in range(steps):
        tick += int(rng.integers(0, 3))
        if rng.random() < 0.5:
            ops.append(("scalar", [_row(rng, tick)]))
            continue
        rows = []
        for _ in range(int(rng.integers(1, 8))):
            row = _row(rng, tick)
            if rows and rng.random() < 0.6:
                row = row[:3] + (rows[-1][3],) + row[4:]
            rows.append(row)
            tick += int(rng.integers(0, 2))
        ops.append(("batch", rows))
    return ops


def _apply(log: ActionLog, ops) -> None:
    for kind, rows in ops:
        if kind == "batch":
            log.append_batch(rows)
        else:
            log.log_action(*rows[0])


def _windows(records) -> list[tuple[int, int | None]]:
    last = max(r.tick for r in records)
    mid = last // 2
    return [
        (0, None),               # open-ended, whole log
        (mid, None),             # open-ended tail
        (last + 1, None),        # open-ended past the end: empty
        (0, 0),                  # empty at the origin
        (mid, mid),              # empty interior
        (mid, mid - 3),          # inverted: empty
        (last // 4, 3 * last // 4),  # interior
        (mid, mid + 1),          # one tick
    ]


def _ids(attributed) -> dict[str, list[int]]:
    return {service: [r.action_id for r in a.records] for service, a in attributed.items()}


def _sweep_count(obs: Observability) -> int:
    return obs.metrics.get_counter_value("detection.classifier.sweeps")


def _assert_matches_oracle(classifier: AASClassifier, records: list) -> None:
    signatures = classifier.signatures
    for start, end in _windows(records):
        for include_blocked in (True, False):
            assert _ids(classifier.sweep(start, end, include_blocked)) == _ids(
                oracle.sweep(signatures, records, start, end, include_blocked)
            ), (start, end, include_blocked)
        assert [r.action_id for r in classifier.benign_records(start, end)] == [
            r.action_id for r in oracle.benign_records(signatures, records, start, end)
        ], (start, end)


def _assert_overlaps_exercised(signatures, log: ActionLog) -> None:
    """Some logged row matches two signatures, and some row none."""
    matches = [sum(s.matches(r) for s in signatures) for r in log]
    assert max(matches) >= 2 and min(matches) == 0
    assert any(r.status is ActionStatus.BLOCKED for r in log)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attached_before_appends(seed: int) -> None:
    obs = Observability()
    log = ActionLog()
    classifier = AASClassifier(SIGNATURES, log, obs=obs)
    _apply(log, _script(seed))
    _assert_overlaps_exercised(SIGNATURES, log)
    _assert_matches_oracle(classifier, list(log))
    assert _sweep_count(obs) == 2 * len(_windows(list(log)))


@pytest.mark.parametrize("seed", [3, 4])
def test_attached_midway(seed: int) -> None:
    ops = _script(seed)
    log = ActionLog()
    _apply(log, ops[: len(ops) // 2])
    classifier = AASClassifier(SIGNATURES, log)
    _assert_matches_oracle(classifier, list(log))
    _apply(log, ops[len(ops) // 2 :])
    _assert_matches_oracle(classifier, list(log))


@pytest.mark.parametrize("seed", [5, 6])
def test_detach_and_reattach_relearned(seed: int) -> None:
    ops = _script(seed)
    log = ActionLog()
    first = AASClassifier(SIGNATURES, log)
    _apply(log, ops[: len(ops) // 3])
    seen = list(log)
    first.detach()
    relearned = AASClassifier(RELEARNED, log)
    _apply(log, ops[len(ops) // 3 :])
    _assert_overlaps_exercised(RELEARNED, log)
    _assert_matches_oracle(relearned, list(log))
    # the detached classifier stops streaming: it answers over the rows
    # appended before detach() and ignores the rest
    assert len(seen) < len(log)
    _assert_matches_oracle(first, seen)
