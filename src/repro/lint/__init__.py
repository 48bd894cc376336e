"""Determinism & architecture linter for the reproduction codebase.

The whole study rests on one invariant: a run is a pure function of the
root seed (``StudyConfig.seed``), so every table and figure regenerates
bit-identically. ``repro.lint`` enforces that invariant — and the layered
architecture that makes the attribution argument non-circular — with an
AST pass over the source tree, one file at a time (stdlib :mod:`ast`
only, no dependencies; the package imports nothing else from ``repro``).

Rule families:

``DET``  determinism — bans ambient randomness, wall clocks, entropy
         UUIDs, environment reads, and hash-ordered set iteration
``ARCH`` layering — the simulated substrate must never import its
         observers; imports point strictly down the layer stack
``API``  randomness injection — analysis/detection/interventions accept
         ``rng``/``seeds`` parameters instead of minting generators
``OBS``  telemetry — library code never prints, and host probes stay
         in one module

The cross-module invariants (RNG state shared between studies, the
fleet's spawn/pickle surface, obs staying write-only) are checked by
runtime tests instead (DESIGN.md §12).

Programmatic use::

    from repro.lint import lint_paths
    assert lint_paths(["src/repro"]) == []

Command line::

    python -m repro.lint src tests
    python -m repro.lint --list-rules
    python -m repro.lint src --format json

Per-line waivers (always add the justification)::

    call()  # repro-lint: ignore[DET003] -- benchmarking harness, not sim
"""

from repro.lint.cli import main
from repro.lint.engine import lint_paths, lint_source, parse_suppressions
from repro.lint.findings import PARSE_RULE, Finding
from repro.lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text
from repro.lint.rules import Rule, all_rules, rule_ids, select_rules

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "PARSE_RULE",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "main",
    "parse_suppressions",
    "rule_ids",
    "render_json",
    "render_text",
    "select_rules",
]
