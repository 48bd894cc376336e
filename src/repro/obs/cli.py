"""``python -m repro.obs`` — summarize, regress, diff, validate.

Subcommands:

* ``summarize TRACE [TRACE ...]`` — top spans by total tick-span (with
  per-phase ``peak_rss_kb`` when the trace has RSS stamps),
  counter/gauge tables, histogram percentile rows. Several traces (or
  one fleet-merged multi-segment file) are merged: counters sum, gauges
  average, histograms combine count/min/max.
* ``regress HISTORY`` — check every ``BENCH_HISTORY.jsonl`` record
  against the end-to-end bounds of the ``BENCHMARK.json`` beside it
  (:mod:`repro.obs.history`); exits 1 naming ``file:line`` and the key
  of each failure.
* ``diff OLD NEW`` — compare the instrument coverage and span names of
  two traces; exits 1 when NEW *lost* coverage (a span name or metric
  series present in OLD is gone), the regression CI should catch.
* ``validate TRACE [TRACE ...]`` — schema-check traces; exits 1 on any
  failure.

Exit codes: 0 success, 1 validation failure / coverage or perf
regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.history import check_history
from repro.obs.metrics import format_metric
from repro.obs.schema import validate_trace
from repro.obs.trace import read_trace_lines, split_segments

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...], str]


def _load(path: str) -> List[object]:
    lines = read_trace_lines(path)
    errors = validate_trace(lines)
    if errors:
        raise ValueError("\n".join(f"{path}: {error}" for error in errors))
    return lines


def _span_lines(lines: Sequence[object]) -> List[Dict[str, object]]:
    return [
        line
        for line in lines
        if isinstance(line, dict) and line.get("kind") == "span"
    ]


def _metric_entries(lines: Sequence[object]) -> List[Dict[str, object]]:
    tail = lines[-1]
    assert isinstance(tail, dict)
    snapshot = tail["snapshot"]
    assert isinstance(snapshot, dict)
    metrics = snapshot["metrics"]
    assert isinstance(metrics, list)
    return [entry for entry in metrics if isinstance(entry, dict)]


def _all_snapshot_entries(lines: Sequence[object]) -> List[List[Dict[str, object]]]:
    """Metric entries of *every* snapshot line (one list per segment)."""
    collected: List[List[Dict[str, object]]] = []
    for line in lines:
        if isinstance(line, dict) and line.get("kind") == "snapshot":
            snapshot = line.get("snapshot")
            if isinstance(snapshot, dict) and isinstance(snapshot.get("metrics"), list):
                collected.append(
                    [entry for entry in snapshot["metrics"] if isinstance(entry, dict)]
                )
    return collected


def _merge_entries(snapshots: List[List[Dict[str, object]]]) -> List[Dict[str, object]]:
    """Merge per-replica snapshots: counters sum, gauges average,
    histograms combine count/sum/min/max (per-segment percentiles are
    not mergeable and are dropped).

    A single snapshot passes through untouched, so summarizing one
    ordinary trace prints exactly what it always has.
    """
    if len(snapshots) == 1:
        return snapshots[0]
    merged: Dict[_SeriesKey, Dict[str, object]] = {}
    gauge_counts: Dict[_SeriesKey, int] = defaultdict(int)
    for entries in snapshots:
        for entry in entries:
            key = _series_key(entry)
            kind = key[2]
            slot = merged.get(key)
            if slot is None:
                slot = {k: v for k, v in entry.items() if k != "percentiles"}
                merged[key] = slot
                if kind == "gauge":
                    gauge_counts[key] = 1
                continue
            if kind == "counter":
                slot["value"] = (slot.get("value") or 0) + (entry.get("value") or 0)
            elif kind == "gauge":
                slot["value"] = (slot.get("value") or 0) + (entry.get("value") or 0)
                gauge_counts[key] += 1
            else:
                slot["count"] = (slot.get("count") or 0) + (entry.get("count") or 0)
                slot["sum"] = (slot.get("sum") or 0) + (entry.get("sum") or 0)
                for pick, field_ in ((min, "min"), (max, "max")):
                    ours, theirs = slot.get(field_), entry.get(field_)
                    if theirs is None:
                        continue
                    slot[field_] = theirs if ours is None else pick(ours, theirs)
    for key, count in gauge_counts.items():
        if count > 1:
            value = merged[key].get("value")
            assert isinstance(value, (int, float))
            merged[key]["value"] = value / count
    return [merged[key] for key in sorted(merged)]


def _series_key(entry: Dict[str, object]) -> _SeriesKey:
    labels = entry.get("labels")
    label_items = tuple(sorted(labels.items())) if isinstance(labels, dict) else ()
    return (str(entry.get("name")), label_items, str(entry.get("type")))


def _entry_display(entry: Dict[str, object]) -> str:
    labels = entry.get("labels")
    return format_metric(str(entry.get("name")), labels if isinstance(labels, dict) else {})


def _fmt_number(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _sweep_view(paths: Sequence[str]) -> int:
    """One table for a whole sweep: the fleet roll-up + per-replica rows.

    A sweep trace (``python -m repro sweep --trace``) leads with a
    fleet-level segment whose header meta carries the orchestrator's
    cost ledger and whose snapshot carries the ``fleet.*`` counters;
    every later segment is one replica. Ordinary multi-segment fleet
    traces (no fleet segment) still get the per-replica table.
    """
    fleet_meta: Optional[Dict[str, object]] = None
    fleet_entries: List[Dict[str, object]] = []
    rows: List[Tuple[str, str, str, int, int]] = []
    segments = 0
    for path in paths:
        lines = _load(path)
        for segment in split_segments(lines):
            segments += 1
            header = segment[0]
            assert isinstance(header, dict)
            meta = header.get("meta")
            meta = meta if isinstance(meta, dict) else {}
            fleet_block = meta.get("fleet")
            if isinstance(fleet_block, dict):
                fleet_meta = fleet_block
                fleet_entries = [
                    entry
                    for entries in _all_snapshot_entries(segment)
                    for entry in entries
                ]
                continue
            span_lines = _span_lines(segment)
            ticks = 0
            for span in span_lines:
                start, end = span.get("start_tick"), span.get("end_tick")
                if isinstance(start, int) and isinstance(end, int):
                    ticks += end - start
            replica = meta.get("replica") or header.get("replica") or "?"
            reused = meta.get("prefix_reused")
            rows.append(
                (
                    str(replica),
                    str(meta.get("arm", "-")),
                    "yes" if reused else ("no" if reused is not None else "-"),
                    len(span_lines),
                    ticks,
                )
            )
    sections: List[str] = []
    if fleet_meta is not None:
        avoided = fleet_meta.get("build_cost_avoided_frac")
        avoided_text = (
            f"{float(avoided):.1%}" if isinstance(avoided, (int, float)) else "-"
        )
        sections.append(
            f"Sweep: {fleet_meta.get('replica_count')} replicas  "
            f"strategy={fleet_meta.get('strategy')}  "
            f"groups={fleet_meta.get('prefix_groups')}  "
            f"phase builds {fleet_meta.get('phase_builds')}/"
            f"{fleet_meta.get('phase_units')}  "
            f"build cost avoided {avoided_text}"
        )
    else:
        sections.append(f"Sweep: {segments} trace segment(s), no fleet roll-up segment")
    counter_rows = [
        (_entry_display(entry), entry.get("value"))
        for entry in fleet_entries
        if entry.get("type") in ("counter", "gauge")
    ]
    if counter_rows:
        width = max(len(display) for display, _ in counter_rows)
        body = ["Fleet counters:"] + [
            f"  {display:<{width}}  {_fmt_number(value)}" for display, value in counter_rows
        ]
        sections.append("\n".join(body))
    if rows:
        name_width = max(max(len(row[0]) for row in rows), len("replica"))
        arm_width = max(max(len(row[1]) for row in rows), len("arm"))
        body = ["Replicas:"]
        body.append(
            f"  {'replica':<{name_width}}  {'arm':<{arm_width}}  reused  spans  ticks"
        )
        for name, arm, reused, spans, ticks in rows:
            body.append(
                f"  {name:<{name_width}}  {arm:<{arm_width}}  "
                f"{reused:<6}  {spans:>5}  {ticks}"
            )
        sections.append("\n".join(body))
    print("\n\n".join(sections))
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    if getattr(args, "sweep", False):
        return _sweep_view(args.traces)
    spans: List[Dict[str, object]] = []
    snapshots: List[List[Dict[str, object]]] = []
    for path in args.traces:
        lines = _load(path)
        spans.extend(_span_lines(lines))
        snapshots.extend(_all_snapshot_entries(lines))
    entries = _merge_entries(snapshots)

    if len(args.traces) == 1 and len(snapshots) == 1:
        title = f"Trace: {args.traces[0]}  ({len(spans)} spans)"
    else:
        title = (
            f"Merged {len(snapshots)} trace segment(s) from "
            f"{len(args.traces)} file(s)  ({len(spans)} spans)"
        )
    sections: List[str] = [title]

    by_name: Dict[str, List[int]] = defaultdict(list)
    rss_by_name: Dict[str, int] = {}
    for span in spans:
        start, end = span.get("start_tick"), span.get("end_tick")
        assert isinstance(start, int) and isinstance(end, int)
        name = str(span.get("name"))
        by_name[name].append(end - start)
        rss = span.get("peak_rss_kb")
        if isinstance(rss, int) and not isinstance(rss, bool):
            # ru_maxrss is a process high-water mark: the per-phase
            # attribution is "the peak as of this phase's close", so the
            # max across same-named spans is the honest roll-up
            rss_by_name[name] = max(rss_by_name.get(name, 0), rss)
    ranked = sorted(by_name.items(), key=lambda item: (-sum(item[1]), item[0]))
    if args.top > 0:
        ranked = ranked[: args.top]
    if ranked:
        rows = ["Top spans by total tick-span:"]
        width = max(len(name) for name, _ in ranked)
        for name, tick_spans in ranked:
            row = (
                f"  {name:<{width}}  count={len(tick_spans)}"
                f"  ticks={sum(tick_spans)}  max={max(tick_spans)}"
            )
            if name in rss_by_name:
                row += f"  peak_rss_kb={rss_by_name[name]}"
            rows.append(row)
        sections.append("\n".join(rows))

    for kind, title in (("counter", "Counters:"), ("gauge", "Gauges:")):
        rows = [
            (_entry_display(entry), entry.get("value"))
            for entry in entries
            if entry.get("type") == kind
        ]
        if rows:
            width = max(len(display) for display, _ in rows)
            body = [title] + [
                f"  {display:<{width}}  {_fmt_number(value)}" for display, value in rows
            ]
            sections.append("\n".join(body))

    histogram_rows: List[str] = []
    for entry in entries:
        if entry.get("type") != "histogram":
            continue
        percentiles = entry.get("percentiles")
        if isinstance(percentiles, dict):
            stats = "  ".join(
                f"{key}={_fmt_number(value)}" for key, value in sorted(percentiles.items())
            )
            stats += f"  min={_fmt_number(entry.get('min'))}  max={_fmt_number(entry.get('max'))}"
        elif entry.get("count"):
            # merged histograms: percentiles are per-segment and dropped
            stats = f"min={_fmt_number(entry.get('min'))}  max={_fmt_number(entry.get('max'))}"
        else:
            stats = "(empty)"
        histogram_rows.append(
            f"  {_entry_display(entry)}  count={entry.get('count')}  {stats}"
        )
    if histogram_rows:
        sections.append("\n".join(["Histograms:"] + histogram_rows))

    print("\n\n".join(sections))
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    findings, count = check_history(args.history)
    if not count:
        print(f"note: {args.history}: no history records; nothing to check")
        return 0
    for finding in findings:
        print(finding)
    print(f"{count} record(s), {len(findings)} finding(s)")
    return 1 if findings else 0


def cmd_diff(args: argparse.Namespace) -> int:
    old_lines, new_lines = _load(args.old), _load(args.new)
    old_metrics = {_series_key(entry): entry for entry in _metric_entries(old_lines)}
    new_metrics = {_series_key(entry): entry for entry in _metric_entries(new_lines)}
    old_spans = {str(span.get("name")) for span in _span_lines(old_lines)}
    new_spans = {str(span.get("name")) for span in _span_lines(new_lines)}

    removed_spans = sorted(old_spans - new_spans)
    added_spans = sorted(new_spans - old_spans)
    removed_metrics = sorted(set(old_metrics) - set(new_metrics))
    added_metrics = sorted(set(new_metrics) - set(old_metrics))

    for name in removed_spans:
        print(f"- span {name}")
    for name in added_spans:
        print(f"+ span {name}")
    for key in removed_metrics:
        print(f"- metric {_entry_display(old_metrics[key])}")
    for key in added_metrics:
        print(f"+ metric {_entry_display(new_metrics[key])}")

    changed = 0
    for key in sorted(set(old_metrics) & set(new_metrics)):
        old_entry, new_entry = old_metrics[key], new_metrics[key]
        if key[2] == "histogram":
            old_value, new_value = old_entry.get("count"), new_entry.get("count")
            what = "count"
        else:
            old_value, new_value = old_entry.get("value"), new_entry.get("value")
            what = "value"
        if old_value != new_value:
            changed += 1
            print(
                f"~ metric {_entry_display(new_entry)} "
                f"{what} {_fmt_number(old_value)} -> {_fmt_number(new_value)}"
            )

    if not (removed_spans or added_spans or removed_metrics or added_metrics or changed):
        print("traces are equivalent (identical coverage and values)")
    if removed_spans or removed_metrics:
        print(
            f"coverage regression: {len(removed_spans)} span name(s) and "
            f"{len(removed_metrics)} metric series lost"
        )
        return 1
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.traces:
        try:
            lines = read_trace_lines(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: {exc}")
            failures += 1
            continue
        errors = validate_trace(lines)
        if errors:
            failures += 1
            for error in errors:
                print(f"{path}: {error}")
        else:
            print(f"{path}: ok ({len(_span_lines(lines))} spans)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, diff, and validate repro.obs JSONL traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser("summarize", help="report top spans, counters, histograms")
    summarize.add_argument(
        "traces",
        nargs="+",
        help="JSONL trace path(s); several (or a fleet-merged file) are merged",
    )
    summarize.add_argument(
        "--top",
        type=int,
        default=20,
        help="span rows to show (default 20; 0 or less shows all)",
    )
    summarize.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "sweep view: print the fleet roll-up segment (strategy, phase "
            "ledger, fleet.* counters) plus one row per replica segment"
        ),
    )

    regress_cmd = sub.add_parser(
        "regress",
        help="check BENCH_HISTORY.jsonl against the bounds in BENCHMARK.json beside it",
    )
    regress_cmd.add_argument("history", help="path to BENCH_HISTORY.jsonl")

    diff = sub.add_parser("diff", help="compare coverage/values of two traces")
    diff.add_argument("old", help="baseline trace")
    diff.add_argument("new", help="candidate trace")

    validate = sub.add_parser("validate", help="schema-check one or more traces")
    validate.add_argument("traces", nargs="+", help="paths to JSONL traces")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "summarize": cmd_summarize,
        "regress": cmd_regress,
        "diff": cmd_diff,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader (e.g. `summarize ... | head`) went away mid-write;
        # point stdout at devnull so the interpreter's exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
