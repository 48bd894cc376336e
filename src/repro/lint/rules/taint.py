"""API taint rule: RNG values must flow from sanctioned injection roots.

The determinism contract (DESIGN.md §2, §12) is that every generator in
the system descends from a seeded ``SeedSequenceFactory`` lineage out of
``repro.util.rng`` — so replaying a seed replays the study bit-for-bit.
The per-file rules catch the *syntactic* spellings of ambient RNG
(``np.random.seed``, wall-clock seeding); this project rule catches the
*dataflow* leaks the syntax check cannot see. API003 flags an RNG
minted by an unsanctioned constructor, laundered into a module global,
or frozen into a default argument. Module globals and defaults are
evaluated at import time, outside any seed lineage, and shared across
studies — the canonical way replays diverge.

Judgments use the project index's RNG-returning fixpoint, so laundering
through a helper (``def make(): return derive_rng(...)`` assigned at
module scope) is still caught.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ModuleFacts, ProjectIndex

#: the shim that owns RNG construction; its own ctor calls are the roots
_RNG_SHIM_MODULE = "repro.util.rng"


def _in_shim(facts: "ModuleFacts") -> bool:
    return facts.module == _RNG_SHIM_MODULE


class RngProvenanceRule(ProjectRule):
    """API003 — every RNG must be reachable from a seeded injection root."""

    rule_id: ClassVar[str] = "API003"
    summary: ClassVar[str] = (
        "RNG values must flow from SeedSequenceFactory/derive_rng injection "
        "points; unsanctioned constructors, module-global generators, and "
        "RNG-valued default arguments sit outside the seed lineage and "
        "break replay determinism"
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        from repro.lint.project import RNG_CONSTRUCTORS

        producers = index.rng_returning()
        for facts in index.iter_repro_modules():
            if _in_shim(facts):
                continue
            for site in facts.rng_sites:
                if site.kind == "ctor":
                    yield self.finding(
                        facts.path,
                        site.line,
                        site.col,
                        f"unsanctioned RNG constructor `{site.callee}`; inject a "
                        "generator derived from SeedSequenceFactory "
                        "(repro.util.rng) instead of minting ambient state",
                    )
                elif site.kind == "global":
                    if site.callee == "<alias>" or (
                        site.callee not in RNG_CONSTRUCTORS
                        and index.resolve_export(site.callee) in producers
                    ):
                        yield self.finding(
                            facts.path,
                            site.line,
                            site.col,
                            f"module-global `{site.symbol}` holds an RNG (via "
                            f"`{site.callee}`); generators bound at import time "
                            "are shared across studies and escape the seed "
                            "lineage — pass the rng through the call graph",
                        )
                elif site.kind == "default":
                    if (
                        site.callee in RNG_CONSTRUCTORS
                        or index.resolve_export(site.callee) in producers
                    ):
                        yield self.finding(
                            facts.path,
                            site.line,
                            site.col,
                            f"default argument `{site.symbol}` is an RNG built at "
                            "function-definition time; defaults are evaluated "
                            "once at import and shared across calls — require "
                            "the caller to inject the generator",
                        )


TAINT_RULES: tuple[type[ProjectRule], ...] = (RngProvenanceRule,)
