"""Rule registry.

Rules register by being listed in their family module's tuple; the
registry concatenates the families in report order (DET, ARCH, API,
OBS). ``--select`` on the CLI and the ``rules=`` argument of the engine
accept any subset of the ids.
"""

from __future__ import annotations

from repro.lint.rules.api import API_RULES
from repro.lint.rules.arch import ARCH_RULES
from repro.lint.rules.base import ModuleContext, Rule, dotted_name
from repro.lint.rules.det import DET_RULES
from repro.lint.rules.obs import OBS_RULES

_ALL_RULE_CLASSES: tuple[type[Rule], ...] = DET_RULES + ARCH_RULES + API_RULES + OBS_RULES


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, in report order."""
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


__all__ = [
    "ModuleContext",
    "Rule",
    "all_rules",
    "dotted_name",
    "rule_ids",
    "select_rules",
]
