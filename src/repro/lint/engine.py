"""The lint engine: discovery, parsing, suppression, rule dispatch.

Suppression syntax (checked by ``tests/test_lint_rules.py``)::

    bad_call()  # repro-lint: ignore[DET003] -- justification goes here

The bracket list names the rule ids being waived on that line; a bare
``# repro-lint: ignore`` waives every rule on the line. Suppressions are
per-line and should always carry a trailing justification — the linter
does not enforce the prose, review does.

Whole-subtree exemptions (e.g. the perf harness reading the wall clock)
live in :mod:`repro.lint.waivers` instead of per-line pragmas; the
engine drops a finding when a waiver covers its (rule, module) pair.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import PARSE_RULE, Finding
from repro.lint.rules import ModuleContext, Rule, all_rules
from repro.lint.sources import (
    SKIP_DIR_NAMES,
    iter_python_files,
    module_name_for,
    parse_suppressions,
)
from repro.lint.waivers import find_waiver

__all__ = [
    "SKIP_DIR_NAMES",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "parse_suppressions",
]


def _is_suppressed(finding: Finding, suppressions: dict[int, frozenset[str]]) -> bool:
    waived = suppressions.get(finding.line)
    if waived is None:
        return False
    return "*" in waived or finding.rule in waived


def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint one module given as text; ``path`` drives exemption logic."""
    normalized = path.replace("\\", "/")
    active = list(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=normalized)
    except SyntaxError as exc:
        return [
            Finding(
                path=normalized,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule=PARSE_RULE,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = ModuleContext(
        path=normalized, module=module_name_for(normalized), tree=tree, source=source
    )
    suppressions = parse_suppressions(source)
    findings = [
        finding
        for rule in active
        if rule.applies_to(ctx)
        for finding in rule.check(ctx)
        if not _is_suppressed(finding, suppressions)
        and find_waiver(finding.rule, ctx.module) is None
    ]
    return sorted(findings)


def lint_paths(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint every python file reachable from ``paths``."""
    active = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, file_path.as_posix(), rules=active))
    return sorted(findings)
