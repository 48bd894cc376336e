"""Counter classification for perfbench's ``obs.cost_units.*`` metrics.

Some ordinary registry counters count deterministic work units: RNG
stream derivations, ActionLog appends and window queries,
follower-graph edge operations, classifier signature comparisons and
scheduler agent-runs. perfbench's tracer sums the counter deltas of a
traced run by the kind :func:`classify_counter` assigns them and
reports each sum as ``obs.cost_units.<kind>`` (``BENCHMARK.json``
lists those metrics).

A counter is a cost unit only if its value is invariant under
re-scheduling (DESIGN.md §8). The "rng" unit is stream
derivations/lookups (``util.rng.*``), not individual numpy draws —
counting draws would mean wrapping every Generator method, which the
hot paths cannot afford.
"""

from __future__ import annotations

from typing import Tuple

#: ``(kind, counter-name patterns)`` — a pattern ending in ``.`` is a
#: prefix match, anything else an exact match. The first matching
#: entry wins.
COST_KINDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("rng", ("util.rng.",)),
    # "log_batch" counts rows routed through ActionLog.append_batch. It
    # must precede the "log" prefix entry: the counter lives under the
    # platform.actionlog namespace, and first-match order is what keeps
    # it out of the "log" bucket. Rows appended via a batch still count
    # the ordinary per-row "log" units (appends/column_appends), so the
    # "log" kind is identical whether or not a row arrived in a batch.
    ("log_batch", ("platform.actionlog.batch_rows",)),
    ("log", ("platform.actionlog.",)),
    ("graph", ("platform.graph.",)),
    ("classifier", ("detection.classifier.comparisons", "detection.classifier.memo")),
    ("sched", ("core.scheduler.agent_runs",)),
)


def classify_counter(name: str) -> str | None:
    """The cost kind a counter feeds, or ``None`` if it is not a cost."""
    for kind, patterns in COST_KINDS:
        for pattern in patterns:
            if name == pattern or (pattern.endswith(".") and name.startswith(pattern)):
                return kind
    return None
