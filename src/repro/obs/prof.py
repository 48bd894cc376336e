"""Deterministic cost-model profiler: work units attributed to spans.

Wall-clock profiles are useless under the determinism contract — they
vary across hosts and are stripped from canonical traces. What *is*
stable is the count of work units the simulation executes: RNG stream
derivations, ActionLog appends and window queries, follower-graph edge
operations, classifier signature comparisons, scheduler agent-runs.
Those are already ordinary counters in the :class:`MetricsRegistry`;
the profiler turns them into a per-span cost tree.

Mechanics: :class:`CostProfiler` is a :class:`SpanListener`. On span
start it snapshots the per-kind counter totals; on span end it charges
the delta to the span — ``cost_total`` (everything inside the span,
children included) and ``cost_self`` (total minus the children's
totals) land in ``span.attrs`` and therefore in the trace line. Both
are pure functions of control flow, so the cost tree is byte-identical
across repeats, hosts, and worker counts — unlike ``wall_s`` /
``peak_rss_kb``, cost attrs survive :func:`~repro.obs.trace.canonical_lines`.

Counter-to-kind mapping lives in :data:`COST_KINDS`. The "rng" unit is
stream derivations/lookups (``util.rng.*``), not individual numpy
draws — counting draws would mean wrapping every Generator method,
which the hot paths cannot afford; derivations are the stable proxy
for "how much randomness machinery ran here".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanListener

#: span attr carrying the inclusive per-kind cost dict
COST_TOTAL_ATTR = "cost_total"
#: span attr carrying the exclusive (self) per-kind cost dict
COST_SELF_ATTR = "cost_self"
#: every attr the profiler writes, for strip/equivalence helpers
COST_ATTRS = (COST_TOTAL_ATTR, COST_SELF_ATTR)

#: ``(kind, counter-name patterns)`` — a pattern ending in ``.`` is a
#: prefix match, anything else an exact match. Order fixes the kind
#: order everywhere downstream (cost dicts, flamegraph columns).
COST_KINDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("rng", ("util.rng.",)),
    # "log_batch" counts rows routed through ActionLog.append_batch. It
    # must precede the "log" prefix entry: the counter lives under the
    # platform.actionlog namespace, and first-match order is what keeps
    # it out of the "log" bucket. Rows appended via a batch still charge
    # the ordinary per-row "log" units (appends/column_appends), so the
    # "log" kind is identical whether or not a row arrived in a batch;
    # "log_batch" measures the batching machinery itself and is zero in
    # runs where no batch scope defers (e.g. a policy is installed).
    ("log_batch", ("platform.actionlog.batch_rows",)),
    ("log", ("platform.actionlog.",)),
    ("graph", ("platform.graph.",)),
    ("classifier", ("detection.classifier.comparisons", "detection.classifier.memo")),
    ("sched", ("core.scheduler.agent_runs",)),
)

#: kind labels in canonical order
KIND_NAMES: Tuple[str, ...] = tuple(kind for kind, _patterns in COST_KINDS)


def classify_counter(name: str) -> str | None:
    """The cost kind a counter feeds, or ``None`` if it is not a cost."""
    for kind, patterns in COST_KINDS:
        for pattern in patterns:
            if name == pattern or (pattern.endswith(".") and name.startswith(pattern)):
                return kind
    return None


class _Frame:
    """Per-open-span bookkeeping: baseline totals + children's charges."""

    __slots__ = ("span_id", "baseline", "children")

    def __init__(self, span_id: int, baseline: Dict[str, int]) -> None:
        self.span_id = span_id
        self.baseline = baseline
        self.children: Dict[str, int] = {kind: 0 for kind in KIND_NAMES}


class CostProfiler(SpanListener):
    """Attributes registry counter deltas to the enclosing span.

    Attach via ``tracer.add_listener`` *before* the spans of interest
    open; a span that was already open when the profiler attached (e.g.
    right after a snapshot restore) is left uncharged rather than
    charged a bogus delta.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._frames: List[_Frame] = []
        #: counter name -> kind (or None), memoized; registry keys are
        #: append-only so entries never go stale
        self._kind_index: Dict[str, str | None] = {}

    def _totals(self) -> Dict[str, int]:
        totals = {kind: 0 for kind in KIND_NAMES}
        for name, value in self._registry.counter_items():
            kind = self._kind_index.get(name, "")
            if kind == "":
                kind = classify_counter(name)
                self._kind_index[name] = kind
            if kind is not None:
                totals[kind] += value
        return totals

    def span_started(self, span: Span) -> None:
        self._frames.append(_Frame(span.span_id, self._totals()))

    def span_ended(self, span: Span) -> None:
        if not self._frames or self._frames[-1].span_id != span.span_id:
            # the span opened before we attached; nothing to charge
            return
        frame = self._frames.pop()
        now = self._totals()
        total = {kind: now[kind] - frame.baseline[kind] for kind in KIND_NAMES}
        self_cost = {kind: total[kind] - frame.children[kind] for kind in KIND_NAMES}
        span.attrs[COST_TOTAL_ATTR] = total
        span.attrs[COST_SELF_ATTR] = self_cost
        if self._frames:
            parent = self._frames[-1]
            for kind in KIND_NAMES:
                parent.children[kind] += total[kind]


def strip_cost_attrs(lines: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Copies of ``lines`` with profiler attrs removed from span lines.

    The equivalence suite compares a profiled trace against a plain one:
    after stripping, the two must be byte-identical.
    """
    stripped: List[Dict[str, object]] = []
    for line in lines:
        attrs = line.get("attrs")
        if line.get("kind") == "span" and isinstance(attrs, dict):
            kept = {key: value for key, value in attrs.items() if key not in COST_ATTRS}
            stripped.append({**line, "attrs": kept})
        else:
            stripped.append(dict(line))
    return stripped
