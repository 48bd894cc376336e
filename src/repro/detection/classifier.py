"""Sweeping the action log: attribution and customer identification.

"Using our service characterizations we were then able to identify all
accounts used by customers of each service" (Section 1). The classifier
matches every logged action against the learned signatures; actors of
matched actions are service customers, and for collusion networks the
*recipients* of matched actions are customers as well (including the
inbound-only accounts that pay the no-outbound fee — Section 5.2 counts
them exactly this way).

The classifier binds to one :class:`~repro.platform.actions.ActionLog`
at construction: it attributes the rows already there, then registers
as a log observer and attributes every later row once, on append, into
per-service (and benign) streams. A stream is two parallel
``array('q')`` vectors, row ids and ticks, so the classifier holds no
object per logged row. A sweep of any window is a binary search plus
one slice per service, and only the rows a sweep returns are decoded
into :class:`~repro.platform.columns.ActionView` flyweights. The log only
accepts appends in tick order, so the streams stay sorted by tick. The
reference semantics — every record in the window matched against the
signature list, first matching signature wins — live with the tests
(``tests/oracles/classifier.py``), and
``tests/test_detection_streaming_equivalence.py`` checks the streams
against them.

One per-(ASN, variant) match memo, kept by :meth:`AASClassifier.attribute`,
bounds the matching work: signatures only inspect those two endpoint
fields, so distinct (ASN, variant) pairs — not records — set how many
signature comparisons run. Every attributed row counts exactly one memo
hit or miss.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.aas.base import ServiceType
from repro.detection.signals import ServiceSignature
from repro.obs import NULL_OBS, Observability
from repro.platform.actions import ActionLog
from repro.platform.columns import ActionColumns, ActionView
from repro.platform.models import AccountId, ActionStatus


@dataclass
class AttributedActivity:
    """Everything attributed to one service in a sweep."""

    service: str
    service_type: ServiceType
    records: list[ActionView] = field(default_factory=list)

    def rows(self) -> tuple[Optional[ActionColumns], list[int]]:
        """The log columns behind :attr:`records` and the records' row
        ids, for analyses that scan columns rather than decode a view
        per field; ``(None, [])`` when there are no records."""
        records = self.records
        if not records:
            return None, []
        return records[0].columns, [r.action_id for r in records]

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


#: sentinel distinguishing "(asn, variant) never attributed" from a
#: memoized benign (None) attribution in the batch observer's memo probe
_UNSEEN = object()


def _cut_window(rows: array, ticks: array, start_tick: int, end_tick: int | None) -> array:
    """Slice ``rows`` (parallel to sorted ``ticks``) to a tick window."""
    lo = bisect_left(ticks, start_tick)
    hi = len(ticks) if end_tick is None else bisect_left(ticks, end_tick)
    return rows[lo:max(hi, lo)]


class AASClassifier:
    """Attributes the rows of one action log to services via learned
    signatures.

    The signature list must not be mutated after construction (the match
    memo and the streams key off it); re-learning builds a new
    classifier, as :meth:`repro.core.study.Study.learn_signatures` does.
    """

    def __init__(
        self,
        signatures: Iterable[ServiceSignature],
        log: ActionLog,
        obs: Optional[Observability] = None,
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
        self._obs_sweeps = _obs.counter("detection.classifier.sweeps")
        #: (asn, variant) -> service-or-None; matching reads only those two
        #: endpoint fields, so distinct pairs bound the matching work
        self._match_memo: dict[tuple[int, str], Optional[str]] = {}
        # each stream keeps row ids and their ticks in tick order, so a
        # window sweep is a bisect plus one slice
        self._log = log
        self._stream_rows: dict[str, array] = {s.service: array("q") for s in self.signatures}
        self._stream_ticks: dict[str, array] = {s.service: array("q") for s in self.signatures}
        self._benign_rows = array("q")
        self._benign_ticks = array("q")
        for record in log:
            self._observe(record)
        log.add_observer(self._observe_batch)

    def attribute(self, record: ActionView) -> Optional[str]:
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
    # Streaming attribution
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Stop observing the log; sweeps then answer over the rows
        appended before this call."""
        self._log.remove_observer(self._observe_batch)

    def _observe(self, record: ActionView) -> None:
        # one row of the attach-time replay: one memo lookup, two array
        # appends
        service = self.attribute(record)
        if service is None:
            rows, ticks = self._benign_rows, self._benign_ticks
        else:
            rows, ticks = self._stream_rows[service], self._stream_ticks[service]
        rows.append(record.action_id)
        ticks.append(record.tick)

    def _observe_batch(self, cols: ActionColumns, start: int, end: int) -> None:
        """The log observer: ingests one :meth:`ActionLog.append_batch`
        row range.

        Exactly ``end - start`` :meth:`_observe` calls' worth of state
        and telemetry: each row probes the match memo on its endpoint's
        (ASN, variant), hits are accumulated and charged once, and a miss
        decodes the row into a view for :meth:`attribute`, which counts
        it. The memo dict, the columns and — since batches are dominated
        by single-service bursts — the per-service stream arrays are
        resolved outside the per-row loop.
        """
        match_memo = self._match_memo
        endpoints = cols.endpoints
        col_ticks = cols.ticks
        benign = (self._benign_rows, self._benign_ticks)
        stream_rows = self._stream_rows
        stream_ticks = self._stream_ticks
        last_service: object = _UNSEEN
        rows, ticks = benign
        memo_hits = 0
        for row in range(start, end):
            endpoint = endpoints[row]
            service = match_memo.get((endpoint.asn, endpoint.fingerprint.variant), _UNSEEN)
            if service is _UNSEEN:
                service = self.attribute(ActionView(cols, row))
            else:
                memo_hits += 1
            if service is not last_service:
                last_service = service
                if service is None:
                    rows, ticks = benign
                else:
                    rows, ticks = stream_rows[service], stream_ticks[service]
            rows.append(row)
            ticks.append(col_ticks[row])
        if memo_hits:
            self._obs_memo_hit.inc(memo_hits)

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------

    def sweep(
        self,
        start_tick: int = 0,
        end_tick: int | None = None,
        include_blocked: bool = True,
    ) -> dict[str, AttributedActivity]:
        """Every logged record in ``[start_tick, end_tick)``, by service.

        Blocked attempts are included by default — they are still abuse
        attempts and the intervention analyses need them.
        """
        self._obs_sweeps.inc()
        cols = self._log.columns
        blocked = ActionStatus.BLOCKED.col_code
        status_codes = cols.status_codes
        out = {}
        for signature in self.signatures:
            rows = _cut_window(
                self._stream_rows[signature.service],
                self._stream_ticks[signature.service],
                start_tick,
                end_tick,
            )
            if include_blocked:
                records = [ActionView(cols, row) for row in rows]
            else:
                records = [
                    ActionView(cols, row) for row in rows if status_codes[row] != blocked
                ]
            out[signature.service] = AttributedActivity(
                service=signature.service,
                service_type=signature.service_type,
                records=records,
            )
        return out

    def benign_records(
        self, start_tick: int = 0, end_tick: int | None = None
    ) -> list[ActionView]:
        """Logged records in the window matching no signature — the
        legitimate-traffic pool the intervention thresholds are computed
        from (Section 6.2)."""
        cols = self._log.columns
        rows = _cut_window(self._benign_rows, self._benign_ticks, start_tick, end_tick)
        return [ActionView(cols, row) for row in rows]
