"""Per-layer tracing from outside the program.

The traced run patches the public functions named in :data:`LAYERS` —
class attributes, or module attributes for module-level functions — with
timing wrappers, and restores every original when it uninstalls. Hot
per-action calls are aggregated into counts and self time (span time
minus the time of wrapped calls nested inside it); coarse boundaries
(agent runs, sweeps, calibrations, store operations, replicas) also keep
a real span each: name, start, end and parent. Spans stay in memory and
are written out when the run ends.

Timestamps come from :meth:`HostClock.work_now`, which excludes the
reference kernel's own runs. Totals are split at the start of the timed
region: ``<layer>.<suffix>`` covers the timed region only, like the
counter metrics and ``trace.coverage_frac``, while layers whose change
should move ``setup_s`` also report ``setup.<layer>.<suffix>`` for the
set-up. Each phase is scaled into normalized seconds with its own
normalization factor.

Each :class:`Layer` records which end-to-end metric, on which workload,
a change to that layer should move — the predictions later performance
work cites by metric name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """One traced layer boundary and the metrics it reports."""

    #: metric-name prefix, e.g. ``platform.log.append``
    name: str
    #: the package layer (``repro.<layer>``) the wrapped functions live in
    layer: str
    #: wrapped public functions as ``module:Class.method`` or ``module:function``;
    #: a trailing ``+`` also wraps every subclass override of the method
    targets: tuple[str, ...]
    #: reported metric suffixes, in order
    metrics: tuple[str, ...]
    #: which end-to-end metric on which workload a change here should move
    moves: str
    #: keep one real span per call (coarse boundaries only)
    span: bool = False
    #: also report the set-up's figures as ``setup.<name>.<suffix>``
    setup: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer(
        "platform.log.append", "platform",
        ("repro.platform.actions:ActionLog.append",
         "repro.platform.actions:ActionLog.append_batch",
         "repro.platform.actions:ActionLog.log_action"),
        ("calls", "rows", "self_s"),
        "actions_per_s on study (most) and interventions",
    ),
    Layer(
        "platform.log.query", "platform",
        ("repro.platform.actions:ActionLog.records_between",
         "repro.platform.actions:ActionLog.by_actor_between",
         "repro.platform.actions:ActionLog.by_target_between",
         "repro.platform.actions:ActionLog.by_signature",
         "repro.platform.actions:ActionLog.daily_count",
         "repro.platform.actions:ActionLog.select"),
        ("calls", "self_s"),
        "actions_per_s on interventions; little on study",
    ),
    Layer(
        "platform.graph", "platform",
        ("repro.platform.graph:FollowerGraph.follow",
         "repro.platform.graph:FollowerGraph.unfollow",
         "repro.platform.graph:FollowerGraph.bulk_follow_new",
         "repro.platform.graph:FollowerGraph.following_view",
         "repro.platform.graph:FollowerGraph.followers_view"),
        ("calls", "self_s"),
        "setup_s on study (world wiring); actions_per_s on study",
        setup=True,
    ),
    Layer(
        "platform.api", "platform",
        ("repro.platform.instagram:InstagramPlatform.like",
         "repro.platform.instagram:InstagramPlatform.follow",
         "repro.platform.instagram:InstagramPlatform.unfollow",
         "repro.platform.instagram:InstagramPlatform.comment",
         "repro.platform.instagram:InstagramPlatform.post",
         "repro.platform.api:_BaseAPI.submit_batch"),
        ("calls", "self_s"),
        "actions_per_s on study",
    ),
    Layer(
        "platform.ratelimit", "platform",
        ("repro.platform.ratelimit:SlidingWindowLimiter.allow",
         "repro.platform.ratelimit:SlidingWindowLimiter.allow_batch"),
        ("calls", "requests", "denied_frac"),
        "actions_per_s on study",
    ),
    Layer(
        "platform.countermeasures", "platform",
        ("repro.platform.countermeasures:CountermeasureEngine.decide",),
        ("calls", "self_s", "blocked_frac"),
        "actions_per_s on interventions; no change on study",
    ),
    Layer(
        "behavior.organic", "behavior",
        ("repro.behavior.organic:OrganicActivityDriver.tick",),
        ("calls", "self_s"),
        "actions_per_s on study",
        span=True,
    ),
    Layer(
        "aas.service", "aas",
        ("repro.aas.base:AccountAutomationService.tick+",),
        ("self_s",),
        "actions_per_s on study and interventions",
        span=True,
    ),
    Layer(
        "aas.clientele", "aas",
        ("repro.aas.clientele:ClienteleDriver.tick",),
        ("self_s",),
        "actions_per_s on study and interventions",
        span=True,
    ),
    Layer(
        "detection.observe", "detection",
        # the one log observer the program registers through
        # ActionLog.add_observer; restored studies unpickle their bound
        # methods by name, so they pick up the patched functions too
        ("repro.detection.classifier:AASClassifier._observe",
         "repro.detection.classifier:AASClassifier._observe_batch"),
        ("rows", "self_s"),
        "actions_per_s on study (observe) and interventions",
    ),
    Layer(
        "detection.sweep", "detection",
        ("repro.detection.classifier:AASClassifier.sweep",),
        ("calls", "self_s"),
        "actions_per_s on interventions (sweeps)",
        span=True,
    ),
    Layer(
        "detection.learn", "detection",
        ("repro.core.study:Study.learn_signatures",),
        ("self_s",),
        "actions_per_s on study; setup_s on interventions",
        span=True,
        setup=True,
    ),
    Layer(
        "interventions.calibrate", "interventions",
        ("repro.interventions.experiment:InterventionController.calibrate",),
        ("calls", "self_s"),
        "actions_per_s on interventions only",
        span=True,
    ),
    Layer(
        "interventions.decide", "interventions",
        ("repro.interventions.policy:ThresholdBinPolicy.decide",),
        ("calls", "self_s"),
        "actions_per_s on interventions only",
    ),
    Layer(
        "honeypot", "honeypot",
        ("repro.honeypot.experiments:ReciprocationExperiment.register_batch",
         "repro.honeypot.experiments:ReciprocationExperiment.results",
         "repro.honeypot.framework:HoneypotFramework.outbound_actions",
         "repro.honeypot.framework:HoneypotFramework.inbound_actions"),
        ("self_s",),
        "actions_per_s on study; setup_s on interventions (honeypot phase)",
        setup=True,
    ),
    Layer(
        "core.scheduler", "core",
        ("repro.core.scheduling:TimingWheel.run_window",
         "repro.core.scheduling:TimingWheel.run_due"),
        ("agent_runs", "self_s"),
        "actions_per_s on all workloads",
    ),
    Layer(
        "analysis.report", "analysis",
        ("repro.core.experiments:render_study_report",),
        ("self_s",),
        "actions_per_s on study",
        span=True,
    ),
    Layer(
        "fleet.snapshot.capture", "fleet",
        ("repro.fleet.snapshot:snapshot_study",),
        ("calls", "bytes", "self_s"),
        "setup_s on sweep; no change elsewhere",
        span=True,
        setup=True,
    ),
    Layer(
        "fleet.snapshot.restore", "fleet",
        ("repro.fleet.snapshot:restore_study",),
        ("calls", "bytes", "self_s"),
        "actions_per_s on sweep; no change elsewhere",
        span=True,
    ),
    Layer(
        "fleet.store.get", "fleet",
        ("repro.fleet.store:SnapshotStore.get",),
        ("calls", "bytes", "self_s"),
        "actions_per_s on sweep; no change elsewhere",
        span=True,
    ),
    Layer(
        "fleet.store.put", "fleet",
        ("repro.fleet.store:SnapshotStore.put",),
        ("calls", "bytes", "self_s"),
        "setup_s on sweep; no change elsewhere",
        span=True,
        setup=True,
    ),
    Layer(
        "fleet.plan", "fleet",
        ("repro.fleet.tree:plan_tree",),
        ("self_s",),
        "setup_s and actions_per_s on sweep; no change elsewhere",
        setup=True,
    ),
)

#: metrics read from the program's own obs counters over the timed region
#: (name, what it is, which end-to-end metric it should move)
COUNTER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("aas.actions", "base of aas.delivered_frac: obs aas.actions, all outcomes",
     "actions_per_s on study and interventions"),
    ("aas.delivered_frac", "obs aas.actions{outcome=delivered} / aas.actions",
     "actions_per_s on study and interventions"),
    ("detection.memo.lookups", "base of detection.memo_hit_frac: classifier memo probes",
     "actions_per_s on interventions and study"),
    ("detection.memo_hit_frac", "classifier memo hits / detection.memo.lookups",
     "actions_per_s on interventions and study"),
)

#: profiler cost-unit kinds reported as obs.cost_units.<name>
COST_UNIT_KINDS: tuple[tuple[str, str], ...] = (
    ("rng", "rng"),
    ("log", "log"),
    ("graph", "graph"),
    ("classifier", "classifier"),
    ("scheduler", "sched"),
)

#: run-level ratios the traced run adds (name, definition)
RUN_METRICS: tuple[tuple[str, str], ...] = (
    ("obs.overhead_frac", "timed region with observability=True / with False, minus 1"),
    ("obs.base_s", "base of obs.overhead_frac: timed region with observability=False"),
    ("trace.overhead_frac", "traced / untraced timed region, minus 1"),
    ("trace.base_s", "base of trace.overhead_frac: untraced timed region"),
    ("trace.coverage_frac", "sum of layer self times in the timed region / trace.timed_s"),
    ("trace.timed_s", "base of trace.coverage_frac: traced timed region"),
)


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{layer.name}.{suffix}" for layer in LAYERS for suffix in layer.metrics]
    names += [
        f"setup.{layer.name}.{suffix}"
        for layer in LAYERS
        if layer.setup
        for suffix in layer.metrics
    ]
    names += [name for name, _what, _moves in COUNTER_METRICS]
    names += [f"obs.cost_units.{name}" for name, _kind in COST_UNIT_KINDS]
    names += [name for name, _what in RUN_METRICS]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def counter_metrics(counters: dict[str, int]) -> dict[str, float]:
    """Counter-derived per-layer metrics from ``name{labels}`` deltas.

    The cost units are the counters the profiler of ``repro.obs.prof``
    charges to spans, classified the same way, so they equal a profiled
    run's totals over the same region.
    """
    from repro.obs.prof import classify_counter

    aas_total = sum(v for k, v in counters.items() if k.startswith("aas.actions{"))
    delivered = sum(
        v for k, v in counters.items()
        if k.startswith("aas.actions{") and "outcome=delivered" in k
    )
    hits = counters.get("detection.classifier.memo{result=hit}", 0)
    lookups = hits + counters.get("detection.classifier.memo{result=miss}", 0)
    units = {kind: 0 for _name, kind in COST_UNIT_KINDS}
    for key, value in counters.items():
        kind = classify_counter(key.split("{", 1)[0])
        if kind in units:
            units[kind] += value
    out: dict[str, float] = {
        "aas.actions": aas_total,
        "aas.delivered_frac": delivered / aas_total if aas_total else 0.0,
        "detection.memo.lookups": lookups,
        "detection.memo_hit_frac": hits / lookups if lookups else 0.0,
    }
    out.update({f"obs.cost_units.{name}": units[kind] for name, kind in COST_UNIT_KINDS})
    return out


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------


class _Acc:
    """One layer's running totals."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def copy(self) -> "_Acc":
        other = _Acc()
        other.calls, other.self_s, other.counts = self.calls, self.self_s, dict(self.counts)
        return other

    def minus(self, earlier: "_Acc") -> "_Acc":
        """The totals accumulated since ``earlier`` was copied."""
        other = _Acc()
        other.calls = self.calls - earlier.calls
        other.self_s = self.self_s - earlier.self_s
        other.counts = {
            key: value - earlier.counts.get(key, 0) for key, value in self.counts.items()
        }
        return other

    def values(self, prefix: str, suffixes: tuple[str, ...], factor: float) -> dict[str, float]:
        """Metric values, self time scaled into normalized seconds by ``factor``."""
        out: dict[str, float] = {}
        for suffix in suffixes:
            name = f"{prefix}.{suffix}"
            if suffix == "calls":
                out[name] = self.calls
            elif suffix == "self_s":
                out[name] = self.self_s * factor
            elif suffix == "denied_frac":
                requests = self.counts.get("requests", 0)
                out[name] = self.counts.get("denied", 0) / requests if requests else 0.0
            elif suffix == "blocked_frac":
                out[name] = self.counts.get("blocked", 0) / self.calls if self.calls else 0.0
            else:
                out[name] = self.counts.get(suffix, 0)
        return out


class _Frame:
    __slots__ = ("acc", "start", "child_s", "span_id")

    def __init__(self, acc: _Acc, start: float, span_id: Optional[int]) -> None:
        self.acc = acc
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id


def _one_row(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("rows", 1)


def _batch_rows(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("rows", len(args[1]))


def _result_bytes(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("bytes", len(result) if result is not None else 0)  # type: ignore[arg-type]


def _blob_bytes(index: int) -> Callable[[_Acc, tuple, object], None]:
    def extract(acc: _Acc, args: tuple, result: object) -> None:
        acc.add("bytes", len(args[index]))

    return extract


def _allow(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("requests", 1)
    acc.add("denied", 0 if result else 1)


def _allow_batch(acc: _Acc, args: tuple, result: object) -> None:
    count = args[3]
    acc.add("requests", count)
    acc.add("denied", count - result)  # type: ignore[operator]


def _decision(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("blocked", 1 if getattr(result, "name", "") == "BLOCK" else 0)


def _agent_runs(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("agent_runs", result if isinstance(result, int) else 0)


def _batch_observe_rows(acc: _Acc, args: tuple, result: object) -> None:
    acc.add("rows", args[3] - args[2])


#: per-target count extraction (anything not listed counts calls only)
_EXTRACT: dict[str, Callable[[_Acc, tuple, object], None]] = {
    "repro.platform.actions:ActionLog.append": _one_row,
    "repro.platform.actions:ActionLog.log_action": _one_row,
    "repro.platform.actions:ActionLog.append_batch": _batch_rows,
    "repro.platform.ratelimit:SlidingWindowLimiter.allow": _allow,
    "repro.platform.ratelimit:SlidingWindowLimiter.allow_batch": _allow_batch,
    "repro.platform.countermeasures:CountermeasureEngine.decide": _decision,
    "repro.detection.classifier:AASClassifier._observe": _one_row,
    "repro.detection.classifier:AASClassifier._observe_batch": _batch_observe_rows,
    "repro.core.scheduling:TimingWheel.run_due": _agent_runs,
    "repro.fleet.snapshot:snapshot_study": _result_bytes,
    "repro.fleet.snapshot:restore_study": _blob_bytes(0),
    "repro.fleet.store:SnapshotStore.get": _result_bytes,
    "repro.fleet.store:SnapshotStore.put": _blob_bytes(2),
}


class Tracer:
    """Installs the layer wrappers and accumulates counts, self time, spans."""

    def __init__(self, clock) -> None:
        self._now = clock.work_now
        self.accs: dict[str, _Acc] = {layer.name: _Acc() for layer in LAYERS}
        #: the totals when the timed region began (see :meth:`start_timed`)
        self._setup: dict[str, _Acc] = {}
        self._timed_start = 0.0
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        self._stack: list[_Frame] = []
        self._span_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- timing core ----------------------------------------------------

    def _timed(
        self,
        acc: _Acc,
        fn: Callable,
        extract: Optional[Callable[[_Acc, tuple, object], None]],
        span_name: Optional[str],
    ) -> Callable:
        now = self._now
        stack = self._stack
        span_stack = self._span_stack
        tracer = self

        def call(*args, **kwargs):
            if stack and stack[-1].acc is acc:
                # re-entry into the same layer: its time is already
                # charged to the enclosing call of that layer
                result = fn(*args, **kwargs)
                if extract is not None:
                    extract(acc, args, result)
                return result
            span_id = None
            if span_name is not None:
                span_id = len(tracer.spans) + len(span_stack)
                span_stack.append(span_id)
            frame = _Frame(acc, now(), span_id)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                elapsed = end - frame.start
                own = elapsed - frame.child_s
                acc.self_s += own
                acc.calls += 1
                if stack:
                    stack[-1].child_s += elapsed
                if span_id is not None:
                    span_stack.pop()
                    parent = span_stack[-1] if span_stack else None
                    tracer.spans.append((span_id, span_name, frame.start, end, parent))
            if extract is not None:
                extract(acc, args, result)
            return result

        return call

    def span_only(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` with a real span that charges no layer time."""
        now = self._now
        span_stack = self._span_stack
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span_id = len(tracer.spans) + len(span_stack)
            span_stack.append(span_id)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span_stack.pop()
                parent = span_stack[-1] if span_stack else None
                tracer.spans.append((span_id, name, start, now(), parent))

        return call

    # -- patching -------------------------------------------------------

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        for layer in LAYERS:
            acc = self.accs[layer.name]
            span_name = layer.name if layer.span else None
            for target in layer.targets:
                extract = _EXTRACT.get(target.rstrip("+"))
                #: one wrapper per function, shared by all its bindings
                wrappers: dict[int, Callable] = {}
                for owner, attr, fn in _resolve(target):
                    wrapped = wrappers.get(id(fn))
                    if wrapped is None:
                        wrapped = functools.wraps(fn)(
                            self._timed(acc, fn, extract, span_name)
                        )
                        wrappers[id(fn)] = wrapped
                    self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def start_timed(self) -> None:
        """Mark the start of the timed region: what follows is timed."""
        self._setup = {name: acc.copy() for name, acc in self.accs.items()}
        self._timed_start = self._now()

    def _timed_accs(self) -> dict[str, _Acc]:
        return {name: acc.minus(self._setup[name]) for name, acc in self.accs.items()}

    def timed_self_s(self) -> float:
        """Raw self time of every layer in the timed region."""
        return sum(acc.self_s for acc in self._timed_accs().values())

    def layer_metrics(self, setup_factor: float, timed_factor: float) -> dict[str, float]:
        """Timed-region figures of every layer, set-up figures where asked.

        Each phase's self time is scaled into normalized seconds with
        that phase's own factor.
        """
        timed = self._timed_accs()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out.update(timed[layer.name].values(layer.name, layer.metrics, timed_factor))
        for layer in LAYERS:
            if layer.setup:
                out.update(
                    self._setup[layer.name].values(
                        f"setup.{layer.name}", layer.metrics, setup_factor
                    )
                )
        return out

    def write_spans(
        self, path: str, origin: float, setup_factor: float, timed_factor: float
    ) -> int:
        """Write the spans as JSON lines, in normalized seconds since ``origin``."""
        split = self._timed_start

        def normalized(raw: float) -> float:
            if raw <= split:
                return (raw - origin) * setup_factor
            return (split - origin) * setup_factor + (raw - split) * timed_factor

        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in sorted(self.spans):
                record = {
                    "id": span_id,
                    "name": name,
                    "start_s": normalized(start),
                    "end_s": normalized(end),
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")
        return len(self.spans)


def _module_bindings(module_name: str, name: str) -> list[tuple[object, str, Callable]]:
    """Every loaded ``repro`` module binding the function ``module.name``.

    Modules that imported the function by name hold their own reference,
    so each binding is patched where it is looked up.
    """
    fn = getattr(importlib.import_module(module_name), name)
    bindings = []
    for mod_name, module in sorted(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(
            module, name, None
        ) is fn:
            bindings.append((module, name, fn))
    return bindings


def _resolve(target: str) -> list[tuple[object, str, Callable]]:
    """``(owner, attribute, function)`` for every binding of ``target``."""
    module_name, qualname = target.split(":")
    with_subclasses = qualname.endswith("+")
    qualname = qualname.rstrip("+")
    if "." not in qualname:
        return _module_bindings(module_name, qualname)
    class_name, attr = qualname.split(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    classes = [cls]
    if with_subclasses:
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop(0)
            classes.append(sub)
            pending.extend(sub.__subclasses__())
    found = []
    for owner in classes:
        fn = owner.__dict__.get(attr)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            continue
        found.append((owner, attr, fn))
    if not found:
        raise LookupError(f"no function to trace at {target}")
    return found
