"""The committed cross-PR performance record and its ``regress`` check.

``BENCH_HISTORY.jsonl`` holds one compact JSON line per accepted change,
in the benchmark pipeline's own shape::

    {"pr": 16, "git_sha": "<full sha>",
     "claim": null | {"metric": "actions_per_s", "workload": "interventions"},
     "medians": {"<workload>/<metric>": {"parent": x, "change": y, "unit": u}}}

The values are ``perfbench/run.py`` medians, already host-normalized.
:func:`check_history` reads each end-to-end metric's ``better`` and
``bound`` from the ``BENCHMARK.json`` beside the history file and
reports, as ``file:line: key: reason``, every record that

(a) misses an end-to-end metric of a workload it names, or holds a
    non-numeric or non-positive value;
(b) has a ``change`` worse than its ``parent`` by more than the bound;
(c) claims a metric that did not improve on the claimed workload;
(d) has a ``change`` worse than the previous record's ``change`` by more
    than the bound, on keys both records share.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

#: the manifest the bounds come from, looked up beside the history file
BENCHMARK_FILE_NAME = "BENCHMARK.json"


def _load_bounds(path: Path) -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    return {
        entry["name"]: (entry["better"], float(entry["bound"]))
        for entry in manifest["end_to_end"]
    }


def _worse(value: float, reference: float, better: str, bound: float) -> bool:
    """Whether ``value`` is worse than ``reference`` by more than ``bound``."""
    if better == "higher":
        return value < reference * (1.0 - bound)
    return value > reference * (1.0 + bound)


def _positive(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0


def check_history(path: Union[str, Path]) -> Tuple[List[str], int]:
    """Findings over every record of ``path``, and the number of records."""
    bounds = _load_bounds(Path(path).resolve().parent / BENCHMARK_FILE_NAME)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    findings: List[str] = []
    previous: Dict[str, float] = {}
    count = 0
    for number, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        count += 1
        where = f"{path}:{number}"
        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        medians = record.get("medians") if isinstance(record, dict) else None
        if not isinstance(record, dict) or not isinstance(medians, dict) or not medians:
            findings.append(f"{where}: not a record with medians")
            continue
        change: Dict[str, float] = {}
        for key, entry in sorted(medians.items()):
            metric = key.partition("/")[2]
            if metric not in bounds or not isinstance(entry, dict):
                findings.append(f"{where}: {key}: not an end-to-end metric entry")
                continue
            if not (_positive(entry.get("parent")) and _positive(entry.get("change"))):
                findings.append(f"{where}: {key}: parent and change must be positive numbers")
                continue
            better, bound = bounds[metric]
            change[key] = entry["change"]
            if _worse(entry["change"], entry["parent"], better, bound):
                findings.append(f"{where}: {key}: change worse than parent beyond {bound:.0%}")
            if key in previous and _worse(entry["change"], previous[key], better, bound):
                findings.append(
                    f"{where}: {key}: change worse than the previous record beyond {bound:.0%}"
                )
        for workload in sorted({key.partition("/")[0] for key in medians}):
            findings.extend(
                f"{where}: {workload}/{metric}: missing"
                for metric in sorted(bounds)
                if f"{workload}/{metric}" not in medians
            )
        claim = record.get("claim")
        if claim is not None:
            key = "claim"
            if isinstance(claim, dict):
                key = f"{claim.get('workload')}/{claim.get('metric')}"
            # a worse-by-more-than-zero parent is an improved change
            if key not in change or not _worse(
                medians[key]["parent"], change[key], bounds[key.partition("/")[2]][0], 0.0
            ):
                findings.append(f"{where}: {key}: claimed metric did not improve")
        previous = change
    return findings, count
