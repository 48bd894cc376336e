"""The :class:`Observability` handle threaded through the pipeline.

One object bundles the metrics registry and the span tracer so
instrumented layers take a single optional ``obs`` parameter. Two
disciplines keep it deterministic and free when unused:

* **Null-object pattern** — a disabled handle (``enabled=False``, or
  the shared :data:`NULL_OBS` default used by un-wired constructors)
  hands out shared no-op instruments and a null span context. Call
  sites resolve instruments once at construction time, so the hot-path
  cost of disabled observability is a dead attribute call — never an
  ``if``.
* **Write-only telemetry** — simulation code only ever writes to the
  handle; nothing reads metrics back into control flow. That is what
  makes obs-on and obs-off runs bit-identical (test-enforced).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.obs import trace as trace_mod
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanListener, Tracer


class Observability:
    """Metrics + tracing behind one enable switch."""

    def __init__(
        self,
        enabled: bool = True,
        tick_source: Optional[Callable[[], int]] = None,
        wall_source: Optional[Callable[[], float]] = None,
        rss_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            tick_source=tick_source, wall_source=wall_source, rss_source=rss_source
        )

    def bind_tick_source(self, tick_source: Callable[[], int]) -> None:
        """Pin span timestamps to a simulation clock (e.g. SimClock.now)."""
        self.tracer.bind_tick_source(tick_source)

    def add_listener(self, listener: SpanListener) -> None:
        """Attach a live span observer (console reporters and the like)."""
        self.tracer.add_listener(listener)

    # -- instruments ----------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.metrics.counter(name, **labels) if self.enabled else NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.metrics.gauge(name, **labels) if self.enabled else NULL_GAUGE

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self.metrics.histogram(name, **labels) if self.enabled else NULL_HISTOGRAM

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[Span]]:
        """Open a phase span; yields ``None`` when disabled."""
        if not self.enabled:
            yield None
            return
        with self.tracer.span(name, **attrs) as record:
            yield record

    # -- trace sink -----------------------------------------------------

    def trace_lines(self, meta: Optional[Dict[str, object]] = None) -> List[Dict[str, object]]:
        """JSON-ready trace lines (header, spans, snapshot)."""
        return trace_mod.trace_lines(self, meta)

    def dump_trace(
        self, path: Union[str, Path], meta: Optional[Dict[str, object]] = None
    ) -> Path:
        """Write the JSONL trace for this handle to ``path``."""
        return trace_mod.write_trace(path, self, meta)


#: shared disabled handle — the default for constructors not wired by a Study
NULL_OBS = Observability(enabled=False)
