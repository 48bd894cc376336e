"""Pure-python validators for obs payloads.

No ``jsonschema`` dependency, just explicit checks that return a list of human-readable
error strings (empty means valid). Two payload shapes:

* **snapshot** — the metrics registry dump embedded in traces
  (``schema_version``
  :data:`repro.obs.metrics.SNAPSHOT_SCHEMA_VERSION`).
* **trace** — a parsed JSONL trace: a header line, zero or more span
  lines, and a final snapshot line (``schema_version``
  :data:`TRACE_SCHEMA_VERSION` on the header).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.obs.metrics import SNAPSHOT_SCHEMA_VERSION

#: bumped whenever the JSONL trace layout changes incompatibly
TRACE_SCHEMA_VERSION = 1

_METRIC_TYPES = ("counter", "gauge", "histogram")


def _check(condition: bool, message: str, errors: List[str]) -> bool:
    if not condition:
        errors.append(message)
    return condition


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_histogram_entry(entry: Dict[str, object], where: str, errors: List[str]) -> None:
    count = entry.get("count")
    if not _check(isinstance(count, int) and not isinstance(count, bool) and count >= 0,
                  f"{where}: histogram count must be a non-negative int", errors):
        return
    _check(_is_number(entry.get("sum")), f"{where}: histogram sum must be a number", errors)
    empty = count == 0
    for key in ("min", "max"):
        value = entry.get(key)
        if empty:
            _check(value is None, f"{where}: {key} must be null for an empty histogram", errors)
        else:
            _check(_is_number(value), f"{where}: {key} must be a number", errors)
    percentiles = entry.get("percentiles")
    if empty:
        _check(percentiles is None,
               f"{where}: percentiles must be null for an empty histogram", errors)
    elif _check(isinstance(percentiles, dict) and bool(percentiles),
                f"{where}: percentiles must be a non-empty object", errors):
        assert isinstance(percentiles, dict)
        for pct_key, pct_value in percentiles.items():
            _check(isinstance(pct_key, str) and pct_key.startswith("p"),
                   f"{where}: percentile key {pct_key!r} must look like 'p50'", errors)
            _check(_is_number(pct_value),
                   f"{where}: percentile {pct_key} must be a number", errors)


def validate_snapshot(payload: object) -> List[str]:
    """Validate a metrics snapshot; returns error strings (empty = ok)."""
    errors: List[str] = []
    if not _check(isinstance(payload, dict), "snapshot: payload must be an object", errors):
        return errors
    assert isinstance(payload, dict)
    _check(payload.get("schema_version") == SNAPSHOT_SCHEMA_VERSION,
           f"snapshot: schema_version must be {SNAPSHOT_SCHEMA_VERSION}", errors)
    metrics = payload.get("metrics")
    if not _check(isinstance(metrics, list), "snapshot: metrics must be a list", errors):
        return errors
    assert isinstance(metrics, list)
    for index, entry in enumerate(metrics):
        where = f"snapshot.metrics[{index}]"
        if not _check(isinstance(entry, dict), f"{where}: must be an object", errors):
            continue
        assert isinstance(entry, dict)
        name = entry.get("name")
        _check(isinstance(name, str) and bool(name), f"{where}: name must be a non-empty str",
               errors)
        kind = entry.get("type")
        if not _check(kind in _METRIC_TYPES,
                      f"{where}: type must be one of {_METRIC_TYPES}", errors):
            continue
        labels = entry.get("labels")
        if _check(isinstance(labels, dict), f"{where}: labels must be an object", errors):
            assert isinstance(labels, dict)
            for label_key, label_value in labels.items():
                _check(isinstance(label_key, str) and isinstance(label_value, str),
                       f"{where}: labels must map str to str", errors)
        if kind == "counter":
            value = entry.get("value")
            _check(isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                   f"{where}: counter value must be a non-negative int", errors)
        elif kind == "gauge":
            _check(_is_number(entry.get("value")), f"{where}: gauge value must be a number",
                   errors)
        else:
            _validate_histogram_entry(entry, where, errors)
    return errors


def _validate_segment(lines: Sequence[object], label: str, errors: List[str]) -> None:
    """Validate one header..snapshot segment, prefixing errors with ``label``."""
    if not _check(len(lines) >= 2,
                  f"{label}: expected at least a header and a snapshot line", errors):
        return

    header = lines[0]
    if _check(isinstance(header, dict) and header.get("kind") == "header",
              f"{label}[0]: first line must be the header", errors):
        assert isinstance(header, dict)
        _check(header.get("schema_version") == TRACE_SCHEMA_VERSION,
               f"{label}[0]: schema_version must be {TRACE_SCHEMA_VERSION}", errors)
        _check(isinstance(header.get("meta"), dict), f"{label}[0]: meta must be an object",
               errors)

    tail = lines[-1]
    if _check(isinstance(tail, dict) and tail.get("kind") == "snapshot",
              f"{label}[-1]: last line must be the metrics snapshot", errors):
        assert isinstance(tail, dict)
        for error in validate_snapshot(tail.get("snapshot")):
            errors.append(f"{label}[-1]: {error}")

    seen_ids = set()
    for index, line in enumerate(lines[1:-1], start=1):
        where = f"{label}[{index}]"
        if not _check(isinstance(line, dict) and line.get("kind") == "span",
                      f"{where}: interior lines must be spans", errors):
            continue
        assert isinstance(line, dict)
        span_id = line.get("id")
        if _check(isinstance(span_id, int) and not isinstance(span_id, bool),
                  f"{where}: id must be an int", errors):
            _check(span_id not in seen_ids, f"{where}: duplicate span id {span_id}", errors)
            seen_ids.add(span_id)
        parent = line.get("parent")
        _check(parent is None or (isinstance(parent, int) and not isinstance(parent, bool)),
               f"{where}: parent must be an int or null", errors)
        _check(isinstance(line.get("name"), str) and bool(line.get("name")),
               f"{where}: name must be a non-empty str", errors)
        _check(isinstance(line.get("attrs"), dict), f"{where}: attrs must be an object", errors)
        depth = line.get("depth")
        _check(isinstance(depth, int) and not isinstance(depth, bool) and depth >= 0,
               f"{where}: depth must be a non-negative int", errors)
        start_tick = line.get("start_tick")
        end_tick = line.get("end_tick")
        ticks_ok = True
        for key, value in (("start_tick", start_tick), ("end_tick", end_tick)):
            ticks_ok = _check(isinstance(value, int) and not isinstance(value, bool),
                              f"{where}: {key} must be an int", errors) and ticks_ok
        if ticks_ok:
            assert isinstance(start_tick, int) and isinstance(end_tick, int)
            _check(end_tick >= start_tick, f"{where}: end_tick must be >= start_tick", errors)
        if "wall_s" in line:
            _check(_is_number(line["wall_s"]), f"{where}: wall_s must be a number", errors)
        if "peak_rss_kb" in line:
            rss = line["peak_rss_kb"]
            _check(isinstance(rss, int) and not isinstance(rss, bool) and rss >= 0,
                   f"{where}: peak_rss_kb must be a non-negative int", errors)


def _split_segments(lines: Sequence[object]) -> List[List[object]]:
    # local copy of repro.obs.trace.split_segments — trace.py imports
    # this module, so importing it back would be a cycle
    segments: List[List[object]] = []
    for line in lines:
        if isinstance(line, dict) and line.get("kind") == "header":
            segments.append([line])
        elif segments:
            segments[-1].append(line)
        else:
            segments.append([line])
    return segments


def validate_trace(lines: Sequence[object]) -> List[str]:
    """Validate parsed JSONL trace lines; returns error strings (empty = ok).

    A single-run trace is one header..snapshot segment. A fleet-merged
    trace (:meth:`repro.fleet.spec.FleetResult.merged_trace_lines`) is
    several such segments concatenated in replica order; each segment is
    validated independently, with errors labelled ``trace.segment[i]``.
    """
    errors: List[str] = []
    segments = _split_segments(lines)
    if len(segments) <= 1:
        _validate_segment(list(lines), "trace", errors)
        return errors
    for index, segment in enumerate(segments):
        _validate_segment(segment, f"trace.segment[{index}]", errors)
    return errors
