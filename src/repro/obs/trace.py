"""JSONL trace sink and readers.

A trace is newline-delimited JSON, dumped at the end of a run (spans
are buffered in memory; nothing streams to disk mid-simulation):

* line 0 — ``{"kind": "header", "schema_version": ..., "meta": {...}}``
* lines 1..n-1 — span records in completion order
  (:meth:`repro.obs.spans.Span.to_line`)
* line n — ``{"kind": "snapshot", "snapshot": <metrics snapshot>}``

Serialization uses ``sort_keys`` and fixed separators, so for one
seeded config the file is byte-identical run to run — except the
opt-in ``wall_s`` span fields, which :func:`canonical_lines` strips
before any comparison (that is the entire scope of the
``repro.obs.walltime`` determinism waiver).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.obs.schema import TRACE_SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.facade import Observability


def trace_lines(
    obs: "Observability", meta: Optional[Dict[str, object]] = None
) -> List[Dict[str, object]]:
    """Header + finished spans + metrics snapshot, as JSON-ready dicts."""
    lines: List[Dict[str, object]] = [
        {"kind": "header", "schema_version": TRACE_SCHEMA_VERSION, "meta": dict(meta or {})}
    ]
    for span in obs.tracer.finished:
        lines.append(span.to_line())
    lines.append({"kind": "snapshot", "snapshot": obs.metrics.snapshot()})
    return lines


def render_trace(lines: Sequence[Dict[str, object]]) -> str:
    """Canonical JSONL text: sorted keys, fixed separators, trailing \\n."""
    return "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n" for line in lines)


def write_trace(
    path: Union[str, Path], obs: "Observability", meta: Optional[Dict[str, object]] = None
) -> Path:
    """Dump a trace for ``obs`` to ``path``; returns the path written."""
    target = Path(path)
    target.write_text(render_trace(trace_lines(obs, meta)), encoding="utf-8")
    return target


def read_trace_lines(path: Union[str, Path]) -> List[object]:
    """Parse a JSONL trace; raises ``ValueError`` with the offending line."""
    lines: List[object] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not valid JSON ({exc})") from exc
    return lines


def label_replica(lines: Sequence[object], replica: str) -> List[object]:
    """Copy of ``lines`` with a ``replica`` label stamped on every record.

    Fleet runs (:mod:`repro.fleet`) concatenate one trace segment per
    replica into a single merged file; the label is what keeps each
    segment attributable after the merge, and what ``split_segments``
    groups by when summarizing.
    """
    labeled: List[object] = []
    for line in lines:
        if isinstance(line, dict):
            stamped = dict(line)
            stamped["replica"] = replica
            labeled.append(stamped)
        else:
            labeled.append(line)
    return labeled


#: span fields sourced from host probes (repro.obs.walltime) rather
#: than simulation state; everything else in a trace is deterministic
NONCANONICAL_SPAN_FIELDS = ("wall_s", "peak_rss_kb")


def canonical_lines(lines: Sequence[object]) -> List[object]:
    """Copy of ``lines`` with the waived host-probe fields removed.

    Canonical traces are what determinism comparisons operate on: two
    runs of the same seeded config must agree byte-for-byte once
    ``wall_s`` and ``peak_rss_kb`` are gone.
    """
    cleaned: List[object] = []
    for line in lines:
        if isinstance(line, dict) and line.get("kind") == "span":
            cleaned.append(
                {
                    key: value
                    for key, value in line.items()
                    if key not in NONCANONICAL_SPAN_FIELDS
                }
            )
        else:
            cleaned.append(line)
    return cleaned
