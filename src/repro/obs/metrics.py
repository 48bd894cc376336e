"""Deterministic metric instruments and the registry that owns them.

Three instrument kinds, mirroring the usual telemetry trinity but with
the simulator's constraints baked in:

* :class:`Counter` — monotonically increasing integer (index hits,
  sweep-tier selections, rate-limit rejections, ...).
* :class:`Gauge` — last-write-wins float (registered agents, signature
  counts).
* :class:`Histogram` — raw observations kept in arrival order;
  percentiles are computed only at snapshot time via
  :func:`repro.util.stats.percentile` so the hot path is one append.

Instruments are keyed by ``(dotted name, sorted label items)``. The
registry hands out the *same* instrument object for the same key, which
lets instrumented code resolve its instruments once at construction
time and then touch a plain attribute on the hot path.

Snapshots are plain JSON-serializable dicts carrying
``schema_version`` (:data:`SNAPSHOT_SCHEMA_VERSION`); entries are
sorted by name then labels so serialization is byte-stable.

The ``Null*`` subclasses back :data:`repro.obs.facade.NULL_OBS`: they
accept writes and drop them, so disabled observability costs one dead
method call per instrumented event and registers nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.util.stats import percentile

#: bumped whenever the snapshot payload shape changes incompatibly
SNAPSHOT_SCHEMA_VERSION = 1

#: percentiles reported for every histogram, in snapshot order
HISTOGRAM_PERCENTILES: Tuple[int, ...] = (50, 90, 99)

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]
Instrument = Union["Counter", "Gauge", "Histogram"]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    for key, value in labels.items():
        if not isinstance(value, str):
            raise TypeError(f"metric label {key!r} must map to str, got {type(value).__name__}")
    return tuple(sorted(labels.items()))


def format_metric(name: str, labels: Dict[str, str]) -> str:
    """``name{a=b,c=d}`` — the human-readable key used by reports."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for signed values")
        self.value += amount


class Gauge:
    """A last-write-wins float."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)


class Histogram:
    """Raw observations; summary statistics are computed at snapshot time."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return float(sum(self._values))

    def summary(self) -> Dict[str, object]:
        """JSON-ready stats block; null min/max/percentiles when empty."""
        if not self._values:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "percentiles": None}
        percentiles = {
            f"p{pct}": float(percentile(self._values, pct)) for pct in HISTOGRAM_PERCENTILES
        }
        return {
            "count": len(self._values),
            "sum": self.total,
            "min": min(self._values),
            "max": max(self._values),
            "percentiles": percentiles,
        }


class NullCounter(Counter):
    """Accepts increments and drops them."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class NullGauge(Gauge):
    """Accepts writes and drops them."""

    __slots__ = ()

    def set(self, value: float) -> None:
        return None

    def inc(self, amount: float = 1.0) -> None:
        return None


class NullHistogram(Histogram):
    """Accepts observations and drops them."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


#: shared no-op instruments handed out by disabled Observability handles
NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class MetricsRegistry:
    """Owns every instrument; get-or-create keyed by name + labels."""

    def __init__(self) -> None:
        self._instruments: Dict[MetricKey, Tuple[str, Instrument]] = {}

    def _get_or_create(self, kind: str, name: str, labels: Dict[str, str]) -> Instrument:
        key: MetricKey = (name, _label_items(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            existing_kind, instrument = existing
            if existing_kind != kind:
                raise ValueError(
                    f"metric {format_metric(name, labels)} already registered "
                    f"as {existing_kind}, requested {kind}"
                )
            return instrument
        instrument = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}[kind]()
        self._instruments[key] = (kind, instrument)
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        instrument = self._get_or_create("counter", name, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        instrument = self._get_or_create("gauge", name, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str, **labels: str) -> Histogram:
        instrument = self._get_or_create("histogram", name, labels)
        assert isinstance(instrument, Histogram)
        return instrument

    def get_counter_value(self, name: str, **labels: str) -> Optional[int]:
        """Read a counter without creating it; ``None`` when unregistered."""
        entry = self._instruments.get((name, _label_items(labels)))
        if entry is None or entry[0] != "counter":
            return None
        instrument = entry[1]
        assert isinstance(instrument, Counter)
        return instrument.value

    def snapshot(self) -> Dict[str, object]:
        """Schema-versioned, JSON-serializable, deterministically ordered."""
        entries: List[Dict[str, object]] = []
        for (name, label_items), (kind, instrument) in sorted(self._instruments.items()):
            entry: Dict[str, object] = {
                "name": name,
                "type": kind,
                "labels": dict(label_items),
            }
            if isinstance(instrument, Counter):
                entry["value"] = instrument.value
            elif isinstance(instrument, Gauge):
                entry["value"] = instrument.value
            else:
                entry.update(instrument.summary())
            entries.append(entry)
        return {"schema_version": SNAPSHOT_SCHEMA_VERSION, "metrics": entries}
