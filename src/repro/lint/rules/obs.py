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
from typing import ClassVar, Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, Rule

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
