"""Console span reporter — the CLI's ``--verbose`` progress lines.

A deliberately thin :class:`repro.obs.spans.SpanListener`: span starts
become indented, tick-stamped progress lines on the given stream, and
top-level span ends report how many simulated ticks the phase covered.
This file (with the CLIs) is one of the sanctioned output sites
allowlisted for the OBS001 no-direct-print rule
(``tests/test_source_rules.py``).
"""

from __future__ import annotations

from typing import TextIO

from repro.obs.spans import Span, SpanListener


class ConsoleReporter(SpanListener):
    """Prints span progress to a stream (the CLI passes stderr)."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream

    def span_started(self, span: Span) -> None:
        attrs = " ".join(f"{key}={value}" for key, value in sorted(span.attrs.items()))
        suffix = f"  [{attrs}]" if attrs else ""
        indent = "  " * span.depth
        print(f"[tick {span.start_tick:>6}] {indent}{span.name}{suffix}", file=self._stream)

    def span_ended(self, span: Span) -> None:
        if span.depth == 0:
            print(
                f"[tick {span.end_tick:>6}] {span.name} done (+{span.tick_span} ticks)",
                file=self._stream,
            )
