"""Sweeping the action log: attribution and customer identification.

"Using our service characterizations we were then able to identify all
accounts used by customers of each service" (Section 1). The classifier
matches every logged action against the learned signatures; actors of
matched actions are service customers, and for collusion networks the
*recipients* of matched actions are customers as well (including the
inbound-only accounts that pay the no-outbound fee — Section 5.2 counts
them exactly this way).

Two execution tiers produce identical results (the equivalence is
property-tested in ``tests/test_detection_streaming_equivalence.py``):

1. **Brute force** — any iterable of records; every record in the window
   is matched against the signature list (first matching signature
   wins). The reference semantics. An unattached
   :class:`~repro.platform.actions.ActionLog` is first narrowed to the
   window with its tick index.
2. **Streaming attribution** — :meth:`AASClassifier.attach` registers the
   classifier as a log observer; records are attributed once, on append,
   into per-service (and benign) record caches, so every later sweep over
   the attached log is a binary search plus one list slice per service.
   An out-of-order append invalidates the bisect and sends later sweeps
   back to brute force.

Both tiers share a per-(ASN, variant) match memo: signatures only inspect
the endpoint, so distinct endpoints — not records — bound the matching
work.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.aas.base import ServiceType
from repro.detection.signals import ServiceSignature
from repro.obs import NULL_OBS, Observability
from repro.platform.actions import ActionLog
from repro.platform.columns import ActionView
from repro.platform.models import AccountId, ActionRecord, ActionStatus


@dataclass
class AttributedActivity:
    """Everything attributed to one service in a sweep."""

    service: str
    service_type: ServiceType
    records: list[ActionRecord] = field(default_factory=list)

    @property
    def actors(self) -> set[AccountId]:
        """Accounts the service drove outbound actions from."""
        return {r.actor for r in self.records}

    @property
    def recipients(self) -> set[AccountId]:
        """Accounts that received service-delivered actions."""
        return {r.target_account for r in self.records if r.target_account is not None}

    @property
    def customers(self) -> set[AccountId]:
        """The service's customer accounts, per the paper's rules."""
        if self.service_type is ServiceType.COLLUSION_NETWORK:
            return self.actors | self.recipients
        return self.actors

    @property
    def inbound_only_accounts(self) -> set[AccountId]:
        """Collusion customers that never source actions (no-outbound fee)."""
        if self.service_type is not ServiceType.COLLUSION_NETWORK:
            return set()
        return self.recipients - self.actors

    @property
    def observed_asns(self) -> set[int]:
        return {r.endpoint.asn for r in self.records}


#: sentinel distinguishing "endpoint id never attributed" from a memoized
#: benign (None) attribution in the streaming observer's id memo
_UNSEEN = object()


def _window(
    records: Iterable[ActionRecord], start_tick: int, end_tick: int | None
) -> Iterable[ActionRecord]:
    """The records of ``records`` in ``[start_tick, end_tick)``, in order.

    A log narrows with its tick index; any other iterable is filtered.
    """
    if isinstance(records, ActionLog):
        return records.records_between(start_tick, end_tick)
    return (
        r for r in records
        if r.tick >= start_tick and (end_tick is None or r.tick < end_tick)
    )


def _cut_window(values: list, ticks: list[int], start_tick: int, end_tick: int | None) -> list:
    """Slice ``values`` (parallel to sorted ``ticks``) to a tick window."""
    lo = bisect_left(ticks, start_tick)
    hi = len(ticks) if end_tick is None else bisect_left(ticks, end_tick)
    return values[lo:max(hi, lo)]


class AASClassifier:
    """Attributes log records to services via learned signatures.

    The signature list must not be mutated after construction (the match
    memo and streaming caches key off it); re-learning builds a new
    classifier, as :meth:`repro.core.study.Study.learn_signatures` does.
    """

    def __init__(
        self, signatures: Iterable[ServiceSignature], obs: Optional[Observability] = None
    ):
        self.signatures = list(signatures)
        names = [s.service for s in self.signatures]
        if len(names) != len(set(names)):
            raise ValueError("duplicate service signatures")
        _obs = obs if obs is not None else NULL_OBS
        _obs.gauge("detection.classifier.signatures").set(len(self.signatures))
        self._obs_memo_hit = _obs.counter("detection.classifier.memo", result="hit")
        self._obs_memo_miss = _obs.counter("detection.classifier.memo", result="miss")
        #: signature.matches() probes — the classifier's work unit in
        #: perfbench's obs.cost_units.classifier; memo hits cost zero
        #: comparisons
        self._obs_comparisons = _obs.counter("detection.classifier.comparisons")
        self._obs_sweep_tier = {
            tier: _obs.counter("detection.classifier.sweeps", tier=tier)
            for tier in ("streamed", "brute")
        }
        #: (asn, variant) -> service-or-None; matching depends only on the
        #: endpoint, so distinct endpoints bound the matching work
        self._match_memo: dict[tuple[int, str], Optional[str]] = {}
        #: interned endpoint id -> service-or-None for the attached
        #: columnar log: the streaming observer's memo probe without
        #: decoding the endpoint or building a key tuple. Ids are
        #: per-log, so attach/detach resets it.
        self._eid_memo: dict[int, Optional[str]] = {}
        # streaming-attribution state (populated by attach()); records are
        # cached by reference so a window sweep is a bisect plus one slice
        self._log: ActionLog | None = None
        self._stream_records: dict[str, list[ActionRecord]] = {}
        self._stream_ticks: dict[str, list[int]] = {}
        self._benign_records: list[ActionRecord] = []
        self._benign_ticks: list[int] = []
        self._stream_ordered = True

    def attribute(self, record: ActionRecord) -> Optional[str]:
        """Service name for one record, or None if it looks benign."""
        key = (record.endpoint.asn, record.endpoint.fingerprint.variant)
        try:
            service = self._match_memo[key]
        except KeyError:
            pass
        else:
            self._obs_memo_hit.inc()
            return service
        self._obs_memo_miss.inc()
        service = None
        comparisons = 0
        for signature in self.signatures:
            comparisons += 1
            if signature.matches(record):
                service = signature.service
                break
        self._obs_comparisons.inc(comparisons)
        self._match_memo[key] = service
        return service

    # ------------------------------------------------------------------
    # Streaming attribution (the incremental fast path)
    # ------------------------------------------------------------------

    @property
    def attached_log(self) -> ActionLog | None:
        """The log this classifier streams from, if any."""
        return self._log

    def attach(self, log: ActionLog) -> None:
        """Stream-attribute ``log``: existing records now, the rest on append.

        Once attached, :meth:`sweep` and :meth:`benign_records` calls that
        pass this log become index lookups over the cached attribution
        instead of full rescans.
        """
        if self._log is log:
            return
        if self._log is not None:
            self.detach()
        self._log = log
        self._eid_memo = {}
        self._stream_records = {s.service: [] for s in self.signatures}
        self._stream_ticks = {s.service: [] for s in self.signatures}
        self._benign_records = []
        self._benign_ticks = []
        self._stream_ordered = True
        for record in log:
            self._observe(record)
        log.add_observer(self._observe, batch=self._observe_batch)

    def detach(self) -> None:
        """Stop observing; subsequent sweeps take the brute-force path."""
        if self._log is None:
            return
        self._log.remove_observer(self._observe)
        self._log = None
        self._eid_memo = {}
        self._stream_records = {}
        self._stream_ticks = {}
        self._benign_records = []
        self._benign_ticks = []

    def _observe(self, record: ActionView) -> None:
        # the per-append hot path: one memo lookup, two list appends.
        # The log hands over column-backed views, so the memo probes on
        # the interned endpoint id and reads the tick straight out of the
        # column — no endpoint decode, no key tuple, no property calls.
        cols = record._cols
        row = record.action_id
        service = self._eid_memo.get(cols.endpoint_ids[row], _UNSEEN)
        if service is _UNSEEN:
            service = self._eid_memo[cols.endpoint_ids[row]] = self.attribute(record)
        else:
            self._obs_memo_hit.inc()
        tick = cols.ticks[row]
        if service is None:
            records, ticks = self._benign_records, self._benign_ticks
        else:
            records, ticks = self._stream_records[service], self._stream_ticks[service]
        if ticks and tick < ticks[-1]:
            self._stream_ordered = False  # out-of-order append: bisect invalid
        records.append(record)
        ticks.append(tick)

    def _observe_batch(self, cols, start: int, end: int) -> None:
        """Bulk ingestion for :meth:`ActionLog.append_batch` row ranges.

        Exactly ``end - start`` :meth:`_observe` calls' worth of state
        and telemetry (memo hits are accumulated and charged once), but
        with the memo dict, columns, and — since batches are dominated
        by single-service bursts — the per-service stream lists resolved
        outside the per-row loop.
        """
        eid_memo = self._eid_memo
        endpoint_ids = cols.endpoint_ids
        col_ticks = cols.ticks
        benign = (self._benign_records, self._benign_ticks)
        stream_records = self._stream_records
        stream_ticks = self._stream_ticks
        last_service: object = _UNSEEN
        records: list = benign[0]
        ticks: list = benign[1]
        last_tick = None
        memo_hits = 0
        for row in range(start, end):
            record = ActionView(cols, row)
            service = eid_memo.get(endpoint_ids[row], _UNSEEN)
            if service is _UNSEEN:
                service = eid_memo[endpoint_ids[row]] = self.attribute(record)
            else:
                memo_hits += 1
            if service is not last_service:
                last_service = service
                if service is None:
                    records, ticks = benign
                else:
                    records, ticks = stream_records[service], stream_ticks[service]
                # re-read the stream's tail once per run of same-service
                # rows; within the run the previous row's tick is local
                last_tick = ticks[-1] if ticks else None
            tick = col_ticks[row]
            if last_tick is not None and tick < last_tick:
                self._stream_ordered = False
            last_tick = tick
            records.append(record)
            ticks.append(tick)
        if memo_hits:
            self._obs_memo_hit.add(memo_hits)

    def _streaming_for(self, records: Iterable[ActionRecord]) -> bool:
        return self._log is not None and records is self._log and self._stream_ordered

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(
        self,
        records: Iterable[ActionRecord],
        start_tick: int = 0,
        end_tick: int | None = None,
        include_blocked: bool = True,
    ) -> dict[str, AttributedActivity]:
        """Attribute every record in the window to a service (or drop it).

        Blocked attempts are included by default — they are still abuse
        attempts and the intervention analyses need them.
        """
        if self._streaming_for(records):
            self._obs_sweep_tier["streamed"].inc()
            return self._sweep_streamed(start_tick, end_tick, include_blocked)
        self._obs_sweep_tier["brute"].inc()
        out = {
            s.service: AttributedActivity(service=s.service, service_type=s.service_type)
            for s in self.signatures
        }
        for record in _window(records, start_tick, end_tick):
            if not include_blocked and record.status is ActionStatus.BLOCKED:
                continue
            service = self.attribute(record)
            if service is not None:
                out[service].records.append(record)
        return out

    def _sweep_streamed(
        self, start_tick: int, end_tick: int | None, include_blocked: bool
    ) -> dict[str, AttributedActivity]:
        assert self._log is not None
        out = {}
        for signature in self.signatures:
            records = _cut_window(
                self._stream_records[signature.service],
                self._stream_ticks[signature.service],
                start_tick,
                end_tick,
            )
            if not include_blocked:
                records = [r for r in records if r.status is not ActionStatus.BLOCKED]
            out[signature.service] = AttributedActivity(
                service=signature.service,
                service_type=signature.service_type,
                records=records,
            )
        return out

    def benign_records(
        self,
        records: Iterable[ActionRecord],
        start_tick: int = 0,
        end_tick: int | None = None,
    ) -> list[ActionRecord]:
        """Records matching no signature — the legitimate-traffic pool the
        intervention thresholds are computed from (Section 6.2)."""
        if self._streaming_for(records):
            return _cut_window(self._benign_records, self._benign_ticks, start_tick, end_tick)
        return [r for r in _window(records, start_tick, end_tick) if self.attribute(r) is None]

    def daily_counts_by_account(
        self,
        records: Iterable[ActionRecord],
        action_type=None,
    ) -> dict[AccountId, dict[int, int]]:
        """Per-account, per-day action counts (helper for thresholds)."""
        counts: dict[AccountId, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for record in records:
            if action_type is not None and record.action_type is not action_type:
                continue
            counts[record.actor][record.day] += 1
        return {a: dict(d) for a, d in counts.items()}
