"""ARCH rules: the package dependency graph must stay a layered DAG.

The reproduction's credibility argument (DESIGN.md §1) requires that the
measured substrate (`platform`, `behavior`, `netsim`) knows nothing about
the measurement machinery that observes it (`detection`, `analysis`,
`interventions`) — otherwise the "attribution recovers ground truth"
claims would be circular. The layer ranks below encode the sanctioned
downward-only import direction; ``core`` is the composition root.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import ModuleContext, Rule

#: Layer ranks; imports must point at strictly lower ranks (same layer is
#: always fine). Same-rank siblings (e.g. detection/honeypot) are
#: independent by construction and may not import each other.
LAYER_RANK: dict[str, int] = {
    "util": 0,
    "netsim": 0,
    "obs": 1,
    # the linter is tooling that observes the codebase, not simulation
    # substrate: it sits above obs so its index cache can report
    # hit-rate counters through the same telemetry as everything else
    "lint": 2,
    "platform": 2,
    "behavior": 3,
    "aas": 4,
    "honeypot": 5,
    "detection": 5,
    "analysis": 6,
    "interventions": 6,
    "core": 7,
    "fleet": 8,
}

#: rank assigned to anything not in the table (top-level modules such as
#: repro.cli / repro.io, and the repro package root itself) — importable
#: from nowhere inside the layer stack
_TOP_RANK = 99


def _imported_repro_modules(tree: ast.Module) -> Iterator[tuple[ast.stmt, str]]:
    """Yield ``(stmt, dotted-module)`` for every absolute repro import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                if node.module == "repro" or node.module.startswith("repro."):
                    yield node, node.module


def _target_layer(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


class LayeringRule(Rule):
    """ARCH001 — imports must point strictly down the layer stack."""

    rule_id: ClassVar[str] = "ARCH001"
    summary: ClassVar[str] = (
        "cross-layer imports must point strictly downward (util/netsim -> "
        "obs -> platform -> behavior -> aas -> honeypot|detection -> "
        "analysis|interventions -> core -> fleet); the substrate "
        "never sees its observers"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        own_layer = ctx.layer
        if own_layer is None or own_layer not in LAYER_RANK:
            return
        own_rank = LAYER_RANK[own_layer]
        for node, module in _imported_repro_modules(ctx.tree):
            target = _target_layer(module)
            if target == own_layer:
                continue
            target_rank = LAYER_RANK.get(target, _TOP_RANK)
            if target_rank >= own_rank:
                yield self.finding(
                    ctx,
                    node,
                    f"layer '{own_layer}' (rank {own_rank}) must not import "
                    f"`{module}` (layer rank {target_rank}); dependencies "
                    "point strictly downward",
                )


class ServiceInternalsRule(Rule):
    """ARCH002 — observers treat the AAS roster as a black box."""

    rule_id: ClassVar[str] = "ARCH002"
    summary: ClassVar[str] = (
        "analysis/detection/interventions must not import "
        "repro.aas.services.<name> internals; go through the "
        "repro.aas.services package API (make_* factories, descriptors)"
    )

    _observer_layers = frozenset({"detection", "analysis", "interventions"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.layer not in self._observer_layers:
            return
        for node, module in _imported_repro_modules(ctx.tree):
            if module.startswith("repro.aas.services."):
                yield self.finding(
                    ctx,
                    node,
                    f"`{module}` reaches into a concrete service's internals; "
                    "the measurement side may only use the repro.aas.services "
                    "package API (honeypots observe, they don't introspect)",
                )


class StarImportRule(Rule):
    """ARCH003 — wildcard imports hide the dependency surface."""

    rule_id: ClassVar[str] = "ARCH003"
    summary: ClassVar[str] = (
        "`from repro... import *` hides which names a layer depends on "
        "and defeats the layering checks; import names explicitly"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "*" for alias in node.names):
                    from_repro = node.level > 0 or (
                        node.module is not None
                        and (node.module == "repro" or node.module.startswith("repro."))
                    )
                    if from_repro:
                        yield self.finding(
                            ctx,
                            node,
                            f"wildcard import from `{node.module or '.' * node.level}`",
                        )


class ProcessMachineryRule(Rule):
    """ARCH004 — process fan-out and serialization live in fleet only."""

    rule_id: ClassVar[str] = "ARCH004"
    summary: ClassVar[str] = (
        "multiprocessing / concurrent.futures / pickle / tempfile / "
        "shutil imports are confined to repro/fleet/; everywhere else "
        "they smuggle in process topology, serialized state, or "
        "filesystem scratch space the determinism contract can't see "
        "(fleet owns the snapshot envelope, the spawn pool, and the "
        "disk snapshot store)"
    )

    _banned_roots = frozenset(
        {"multiprocessing", "pickle", "concurrent", "tempfile", "shutil"}
    )

    def _offends(self, module: str) -> bool:
        return module.split(".")[0] in self._banned_roots

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module is None or not ctx.module.startswith("repro"):
            return
        if ctx.module == "repro.fleet" or ctx.module.startswith("repro.fleet."):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._offends(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"`import {alias.name}` outside repro/fleet/; "
                            "process pools and pickled state belong to the "
                            "fleet layer",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module is not None and self._offends(node.module):
                    yield self.finding(
                        ctx,
                        node,
                        f"`from {node.module} import ...` outside repro/fleet/; "
                        "process pools and pickled state belong to the fleet layer",
                    )


ARCH_RULES: tuple[type[Rule], ...] = (
    LayeringRule,
    ServiceInternalsRule,
    StarImportRule,
    ProcessMachineryRule,
)
