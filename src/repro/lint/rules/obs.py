"""OBS rules: telemetry flows through ``repro.obs``, not stdout.

A bare ``print()`` inside the library is invisible to the trace sink,
unlabeled, and impossible to switch off; the observability layer
(DESIGN.md "Observability architecture") exists so every progress or
diagnostic signal is a span or a metric that lands in the JSONL trace.
Only the user-facing entry points — the CLIs and the obs console
reporter itself — are in the business of writing to a terminal.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, ProjectRule, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ProjectIndex

#: the sanctioned terminal writers: command-line front ends plus the
#: obs console reporter (which exists to render spans for --verbose)
_CONSOLE_OWNERS = (
    "repro/cli.py",
    "repro/lint/cli.py",
    "repro/obs/cli.py",
    "repro/obs/report.py",
)


class DirectPrintRule(Rule):
    """OBS001 — library code must not print; emit spans/metrics instead."""

    rule_id: ClassVar[str] = "OBS001"
    summary: ClassVar[str] = (
        "direct print() bypasses repro.obs telemetry (untraceable, "
        "unlabeled, can't be disabled); emit a span or metric, or print "
        "only from a CLI entry point"
    )
    exempt_suffixes: ClassVar[tuple[str, ...]] = _CONSOLE_OWNERS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module is None:
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "direct `print()` in library code; route progress through "
                    "a repro.obs span/metric (CLIs and obs reporters are the "
                    "only sanctioned terminal writers)",
                )


#: host-probe modules whose readings vary run to run — wall clocks and
#: process resource accounting — confined to the one waived obs module
_HOST_PROBE_MODULES = ("time", "resource")


class HostProbeConfinementRule(Rule):
    """OBS003 — host probes (``time``/``resource``) live in one module.

    Wall-clock and RSS readings are nondeterministic by nature; the
    observability layer keeps them behind ``repro/obs/walltime.py`` (the
    DET003-waived probe module) so every non-canonical trace field has a
    single auditable source and ``canonical_lines()`` can strip them
    all. Anything else importing ``time`` or ``resource`` either belongs
    in that module or is smuggling host state into the simulation.
    """

    rule_id: ClassVar[str] = "OBS003"
    summary: ClassVar[str] = (
        "wall-clock/RSS host probes (import time/resource) are confined "
        "to repro/obs/walltime.py so non-canonical trace fields have one "
        "auditable source; call read_wall_seconds/read_peak_rss_kb instead"
    )
    exempt_suffixes: ClassVar[tuple[str, ...]] = ("repro/obs/walltime.py",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in _HOST_PROBE_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"`import {alias.name}` outside repro/obs/walltime.py; "
                            "host probes (wall clock, RSS) are confined there — "
                            "use read_wall_seconds()/read_peak_rss_kb()",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None:
                    if node.module.split(".")[0] in _HOST_PROBE_MODULES:
                        yield self.finding(
                            ctx,
                            node,
                            f"`from {node.module} import ...` outside "
                            "repro/obs/walltime.py; host probes are confined "
                            "there — use read_wall_seconds()/read_peak_rss_kb()",
                        )


OBS_RULES: tuple[type[Rule], ...] = (DirectPrintRule, HostProbeConfinementRule)


class ObsWriteOnlyRule(ProjectRule):
    """OBS002 — obs state is write-only outside ``repro/obs/``.

    The "obs-off runs are bit-identical" claim (DESIGN.md §7) holds
    structurally only if no library code ever *reads* a counter value,
    metrics snapshot, or tracer record back into data that influences
    control flow or outputs. Export helpers (``trace_lines`` /
    ``dump_trace``) are the sanctioned way trace data leaves the
    process — they serialize at the boundary without feeding values back
    into the computation, so calling them is not a read.
    """

    rule_id: ClassVar[str] = "OBS002"
    summary: ClassVar[str] = (
        "modules outside repro/obs/ must not read metrics/tracer state "
        "(counter .value, metrics.snapshot(), tracer records) into values "
        "that influence control flow or outputs; obs must stay write-only "
        "so obs-off runs are structurally bit-identical"
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        instrument_attrs = index.instrument_attrs()
        for facts in index.iter_repro_modules():
            module = facts.module or ""
            if module == "repro.obs" or module.startswith("repro.obs."):
                continue
            for site in facts.obs_reads:
                if site.attr and site.attr not in instrument_attrs:
                    # receiver attr never holds an instrument anywhere in
                    # the project — enum/.value-style access, not obs
                    continue
                yield self.finding(
                    facts.path,
                    site.line,
                    site.col,
                    f"reads obs state (`{site.expr}`) outside repro/obs/; "
                    "observability is write-only in library code so disabling "
                    "it cannot change behavior — export through "
                    "trace_lines/dump_trace or move the logic into repro.obs",
                )
