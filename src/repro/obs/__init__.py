"""Deterministic observability: metrics, tick-pinned spans, JSONL traces.

The simulator's determinism contract (DESIGN.md §7) forbids ambient
inputs, which historically also meant the pipeline ran blind: progress
was a handful of stderr prints and only end-to-end wall time was
measured. ``repro.obs`` is the telemetry substrate that
fixes this without perturbing determinism:

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms keyed by dotted names with labels, snapshotting to a
  schema-versioned JSON payload.
* :mod:`repro.obs.spans` — phase/span tracing pinned to the simulation
  clock (tick-stamped start/end, nested). Optional wall-clock durations
  come only from :mod:`repro.obs.walltime`, the one module allowlisted
  for the DET003 wall-clock source rule; they are stripped by
  :func:`repro.obs.trace.canonical_lines` so canonical traces are a
  pure function of the seed.
* :mod:`repro.obs.facade` — :class:`Observability`, the handle threaded
  through the study; disabled instances hand out no-op instruments so
  instrumented hot paths cost one dead method call.
* :mod:`repro.obs.trace` / :mod:`repro.obs.schema` — the JSONL trace
  sink and the pure-python validators CI runs over emitted traces.
* :mod:`repro.obs.prof` — the counter classifier behind perfbench's
  ``obs.cost_units.*`` metrics.
* :mod:`repro.obs.history` — the checker of the committed cross-PR
  performance record, ``BENCH_HISTORY.jsonl`` (perfbench medians).
* ``python -m repro.obs`` (:mod:`repro.obs.cli`) — summarize a trace,
  diff two traces for coverage regressions, validate schemas, check
  the performance record.

Telemetry is strictly write-only from the simulation's perspective:
nothing in this package is ever read back by simulation code, which is
why obs-on and obs-off runs are bit-identical (test-enforced by the
golden-digest suite, ``tests/test_core_golden_digests.py``).
"""

from __future__ import annotations

from repro.obs.facade import NULL_OBS, Observability
from repro.obs.history import check_history
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import ConsoleReporter
from repro.obs.schema import (
    TRACE_SCHEMA_VERSION,
    split_segments,
    validate_snapshot,
    validate_trace,
)
from repro.obs.spans import Span, SpanListener, Tracer
from repro.obs.trace import (
    canonical_lines,
    label_replica,
    read_trace_lines,
    trace_lines,
    write_trace,
)

__all__ = [
    "NULL_OBS",
    "SNAPSHOT_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "ConsoleReporter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanListener",
    "Tracer",
    "canonical_lines",
    "check_history",
    "label_replica",
    "read_trace_lines",
    "split_segments",
    "trace_lines",
    "validate_snapshot",
    "validate_trace",
    "write_trace",
]
