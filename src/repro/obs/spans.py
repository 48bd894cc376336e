"""Tick-pinned phase spans.

A span marks one phase of the pipeline (honeypot phase, measurement
window, a sweep, an intervention, ...) with its start and end stamped
in **simulation ticks**, never wall time. Nesting is tracked with an
explicit stack, so a trace reconstructs the phase tree exactly:

    honeypot-phase
      register-honeypots
    measurement-window
      sweep
    intervention
      calibrate
      sweep

Span identifiers are sequential integers in open order, and spans are
recorded in *completion* order — both pure functions of control flow,
so two runs of the same seeded config emit byte-identical span streams.

Wall-clock durations and RSS high-water marks are opt-in: a tracer
built with a ``wall_source`` (the CLI threads
:func:`repro.obs.walltime.read_wall_seconds` through when asked)
attaches a ``wall_s`` field to each span, and one built with an
``rss_source`` (:func:`repro.obs.walltime.read_peak_rss_kb`) stamps
``peak_rss_kb`` at span close. Those are the *only* nondeterministic
outputs and both are stripped by
:func:`repro.obs.trace.canonical_lines` before trace comparisons.

Listeners observe span starts/ends live; the CLI's ``--verbose``
console reporter is one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _zero_tick() -> int:
    return 0


@dataclass
class Span:
    """One tick-stamped phase. ``end_tick`` is set when the span closes."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_tick: int
    depth: int
    attrs: Dict[str, object] = field(default_factory=dict)
    end_tick: Optional[int] = None
    wall_s: Optional[float] = None
    peak_rss_kb: Optional[int] = None

    @property
    def tick_span(self) -> int:
        """Ticks elapsed inside the span (0 while still open)."""
        if self.end_tick is None:
            return 0
        return self.end_tick - self.start_tick

    def to_line(self) -> Dict[str, object]:
        """The JSONL trace record; ``wall_s`` only when measured."""
        line: Dict[str, object] = {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "attrs": dict(self.attrs),
        }
        if self.wall_s is not None:
            line["wall_s"] = self.wall_s
        if self.peak_rss_kb is not None:
            line["peak_rss_kb"] = self.peak_rss_kb
        return line


class SpanListener:
    """Live span observer; subclass and override either hook."""

    def span_started(self, span: Span) -> None:
        return None

    def span_ended(self, span: Span) -> None:
        return None


class Tracer:
    """Opens/closes spans against a bound tick source."""

    def __init__(
        self,
        tick_source: Optional[Callable[[], int]] = None,
        wall_source: Optional[Callable[[], float]] = None,
        rss_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self._tick_source: Callable[[], int] = tick_source or _zero_tick
        self._wall_source = wall_source
        self._rss_source = rss_source
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._next_id = 0
        self._listeners: List[SpanListener] = []

    def bind_tick_source(self, tick_source: Callable[[], int]) -> None:
        """Late-bind the simulation clock (the Study owns the clock)."""
        self._tick_source = tick_source

    # -- snapshot support ----------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Span history travels through a snapshot; wiring does not.

        The tick source is a closure over the owning study's clock and
        the listeners hold live I/O handles — neither serializes, and
        both are per-process wiring rather than trace state. Whoever
        restores a tracer must call :meth:`bind_tick_source` again
        (``Study.__setstate__`` does).
        """
        state = dict(self.__dict__)
        state["_tick_source"] = None
        state["_wall_source"] = None
        state["_rss_source"] = None
        state["_listeners"] = []
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_rss_source", None)
        if self._tick_source is None:  # type: ignore[redundant-expr]
            self._tick_source = _zero_tick

    def add_listener(self, listener: SpanListener) -> None:
        self._listeners.append(listener)

    @property
    def finished(self) -> Tuple[Span, ...]:
        """Closed spans, in completion order."""
        return tuple(self._finished)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_tick=self._tick_source(),
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._next_id += 1
        wall_start = self._wall_source() if self._wall_source is not None else None
        self._stack.append(record)
        for listener in self._listeners:
            listener.span_started(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end_tick = self._tick_source()
            if wall_start is not None and self._wall_source is not None:
                record.wall_s = self._wall_source() - wall_start
            if self._rss_source is not None:
                record.peak_rss_kb = self._rss_source()
            self._finished.append(record)
            for listener in self._listeners:
                listener.span_ended(record)
