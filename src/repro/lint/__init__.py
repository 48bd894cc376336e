"""Determinism & architecture linter for the reproduction codebase.

The whole study rests on one invariant: a run is a pure function of the
root seed (``StudyConfig.seed``), so every table and figure regenerates
bit-identically. ``repro.lint`` enforces that invariant — and the layered
architecture that makes the attribution argument non-circular — with an
AST pass over the source tree (stdlib :mod:`ast` only, no dependencies).

Rule families:

``DET``  determinism — bans ambient randomness, wall clocks, entropy
         UUIDs, environment reads, and hash-ordered set iteration
``ARCH`` layering — the simulated substrate must never import its
         observers; imports point strictly down the layer stack
``API``  randomness injection — analysis/detection/interventions accept
         ``rng``/``seeds`` parameters instead of minting generators;
         the whole-program half (API003) taint-checks RNG provenance
         across modules
``SNAP`` spawn/pickle safety (whole-program) — everything on the fleet
         spawn surface stays module-level, name-resolvable, and
         ``__getstate__``-consistent
``OBS``  telemetry — library code never prints (OBS001) and never reads
         obs state back into behavior (OBS002, whole-program)

The cross-module families run over a project index built incrementally
from a digest-keyed on-disk cache (DESIGN.md §12).

Programmatic use::

    from repro.lint import lint_paths, lint_whole_program
    assert lint_paths(["src/repro"]) == []
    assert lint_whole_program(["src/repro"]) == []

Command line::

    python -m repro.lint src tests
    python -m repro.lint src --whole-program --stats
    python -m repro.lint src --changed-only
    python -m repro.lint --list-rules
    python -m repro.lint src --format json

Per-line waivers (always add the justification)::

    call()  # repro-lint: ignore[DET003] -- benchmarking harness, not sim
"""

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cli import main
from repro.lint.engine import (
    changed_files,
    lint_paths,
    lint_source,
    lint_whole_program,
    parse_suppressions,
)
from repro.lint.findings import PARSE_RULE, Finding
from repro.lint.project import ProjectIndex, build_index
from repro.lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text
from repro.lint.rules import (
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    project_rule_ids,
    rule_ids,
    select_project_rules,
    select_rules,
)

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "PARSE_RULE",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "apply_baseline",
    "build_index",
    "changed_files",
    "lint_paths",
    "lint_source",
    "lint_whole_program",
    "load_baseline",
    "main",
    "parse_suppressions",
    "project_rule_ids",
    "rule_ids",
    "render_json",
    "render_text",
    "select_project_rules",
    "select_rules",
    "write_baseline",
]
