"""Rule registry.

Per-file rules register by being listed in their family module's tuple;
the registry concatenates the families in report order (DET, ARCH, API,
OBS). Whole-program rules (phase two of the analyzer) live in a parallel
registry — TAINT (API003), SNAP, and the cross-module OBS rule — and
run only under ``--whole-program`` because they need the project index.
``--select`` on the CLI and the ``rules=`` arguments of the engine
accept any subset of either registry's ids.
"""

from __future__ import annotations

from repro.lint.rules.api import API_RULES
from repro.lint.rules.arch import ARCH_RULES
from repro.lint.rules.base import ModuleContext, ProjectRule, Rule, dotted_name
from repro.lint.rules.det import DET_RULES
from repro.lint.rules.obs import OBS_RULES, ObsWriteOnlyRule
from repro.lint.rules.snap import SNAP_RULES
from repro.lint.rules.taint import TAINT_RULES

_ALL_RULE_CLASSES: tuple[type[Rule], ...] = DET_RULES + ARCH_RULES + API_RULES + OBS_RULES

_ALL_PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    TAINT_RULES + SNAP_RULES + (ObsWriteOnlyRule,)
)


def all_rules() -> list[Rule]:
    """One fresh instance of every registered per-file rule, in report order."""
    return [cls() for cls in _ALL_RULE_CLASSES]


def rule_ids() -> list[str]:
    return [cls.rule_id for cls in _ALL_RULE_CLASSES]


def select_rules(ids: list[str]) -> list[Rule]:
    """Instances for ``ids``; raises ``ValueError`` on an unknown id."""
    by_id = {cls.rule_id: cls for cls in _ALL_RULE_CLASSES}
    unknown = [rule_id for rule_id in ids if rule_id not in by_id]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [by_id[rule_id]() for rule_id in ids]


def all_project_rules() -> list[ProjectRule]:
    """One fresh instance of every whole-program rule, in report order."""
    return [cls() for cls in _ALL_PROJECT_RULE_CLASSES]


def project_rule_ids() -> list[str]:
    return [cls.rule_id for cls in _ALL_PROJECT_RULE_CLASSES]


def select_project_rules(ids: list[str]) -> list[ProjectRule]:
    """Project-rule instances for ``ids``; unknown ids raise ``ValueError``."""
    by_id = {cls.rule_id: cls for cls in _ALL_PROJECT_RULE_CLASSES}
    unknown = [rule_id for rule_id in ids if rule_id not in by_id]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [by_id[rule_id]() for rule_id in ids]


__all__ = [
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "dotted_name",
    "project_rule_ids",
    "rule_ids",
    "select_project_rules",
    "select_rules",
]
