"""The action log only accepts appends in tick order.

Every query of :class:`repro.platform.actions.ActionLog` — the bisect
windows and the classifier's per-service streams built on them — relies
on ticks never decreasing. The log enforces that itself: ``log_action``,
``append`` and ``append_batch`` raise ``ValueError`` on a row stamped
below the row before it, naming both ticks. A rejected call changes
nothing: the length, every query, what observers saw and a bound
classifier's sweeps all equal their values before the call. For
``append_batch`` that holds wherever the bad row sits, because the rows
are checked before any is stored. The brute-force
:class:`tests.oracles.actionlog.ListActionLog` rejects the same calls.
"""

from __future__ import annotations

import pickle

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.signals import ServiceSignature
from repro.platform.actions import ActionLog
from repro.util.rng import derive_rng

from tests.oracles.actionlog import ActionRecord, ListActionLog
from tests.test_platform_actionlog_batch import _random_row
from tests.test_platform_columnar_log import _assert_queries_equivalent

#: one signature per ASN of the shared endpoints, so every row lands in
#: a service stream or the benign pool
SIGNATURES = (
    ServiceSignature("Home", ServiceType.RECIPROCITY_ABUSE, frozenset({64512}), frozenset()),
    ServiceSignature("Away", ServiceType.COLLUSION_NETWORK, frozenset({64999}), frozenset()),
)
WINDOWS = ((0, None), (5, 20), (10, 11), (20, None))
LOGS = pytest.mark.parametrize("log_type", [ActionLog, ListActionLog])


def _filled(log_type):
    """A log of 60 in-order rows; returns it and its tail tick."""
    log = log_type()
    rng = derive_rng(21, "actionlog-order")
    tick = 1
    for _ in range(60):
        tick += int(rng.integers(0, 2))
        log.log_action(*_random_row(rng, tick))
    return log, tick


def _late_row(tick: int) -> tuple:
    return _random_row(derive_rng(22, "actionlog-order-late"), tick)


def _sweeps(classifier: AASClassifier) -> list:
    out = []
    for start, end in WINDOWS:
        for include_blocked in (True, False):
            attributed = classifier.sweep(start, end, include_blocked)
            out.append({s: [r.action_id for r in a.records] for s, a in attributed.items()})
        out.append([r.action_id for r in classifier.benign_records(start, end)])
    return out


class _Watch:
    """A log, a frozen copy of it, and the state a rejected call must keep."""

    def __init__(self, log_type) -> None:
        self.log, self.tail = _filled(log_type)
        self.before_log = pickle.loads(pickle.dumps(self.log))
        self.seen: list[int] = []
        self.log.add_observer(lambda _store, start, end: self.seen.extend(range(start, end)))
        self.classifier = (
            AASClassifier(SIGNATURES, self.log) if isinstance(self.log, ActionLog) else None
        )
        self.before_sweeps = None if self.classifier is None else _sweeps(self.classifier)

    def assert_unchanged(self) -> None:
        assert self.seen == []
        _assert_queries_equivalent(self.log, self.before_log)
        if self.classifier is not None:
            assert _sweeps(self.classifier) == self.before_sweeps

    def assert_still_appends(self) -> None:
        """The log accepts the next in-order row; a bound classifier sees it."""
        self.log.log_action(*_late_row(self.tail))
        assert self.seen == [len(self.log) - 1]
        if self.classifier is not None:
            swept = {r.action_id for a in self.classifier.sweep().values() for r in a.records}
            benign = {r.action_id for r in self.classifier.benign_records()}
            assert len(self.log) - 1 in swept | benign


@LOGS
def test_log_action_rejects_a_tick_below_the_tail(log_type) -> None:
    watch = _Watch(log_type)
    late = watch.tail - 1
    with pytest.raises(ValueError, match=f"tick {late} after tick {watch.tail}"):
        watch.log.log_action(*_late_row(late))
    watch.assert_unchanged()
    watch.assert_still_appends()


@LOGS
def test_append_rejects_a_tick_below_the_tail(log_type) -> None:
    watch = _Watch(log_type)
    row = _late_row(watch.tail - 1)
    record = ActionRecord(len(watch.log), *row)
    with pytest.raises(ValueError, match=f"tick {watch.tail - 1} after tick {watch.tail}"):
        watch.log.append(record)
    watch.assert_unchanged()
    watch.assert_still_appends()


@LOGS
@pytest.mark.parametrize("bad", [0, 1, 2], ids=["first", "middle", "last"])
def test_append_batch_rejects_the_whole_batch(log_type, bad: int) -> None:
    watch = _Watch(log_type)
    tail = watch.tail
    rows = [_late_row(tail + 1 + i) for i in range(3)]
    rows[bad] = _late_row(tail - 1)
    prev = tail if bad == 0 else tail + bad
    with pytest.raises(ValueError, match=f"tick {tail - 1} after tick {prev}"):
        watch.log.append_batch(rows)
    watch.assert_unchanged()
    watch.assert_still_appends()


@LOGS
def test_append_batch_rejects_rows_out_of_order_among_themselves(log_type) -> None:
    """Every row is at or after the tail, but the batch steps back."""
    watch = _Watch(log_type)
    tail = watch.tail
    rows = [_late_row(tail + 2), _late_row(tail + 1)]
    with pytest.raises(ValueError, match=f"tick {tail + 1} after tick {tail + 2}"):
        watch.log.append_batch(rows)
    watch.assert_unchanged()
    watch.assert_still_appends()

