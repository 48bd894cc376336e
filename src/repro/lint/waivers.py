"""Module-scoped rule waivers.

Per-line ``# repro-lint: ignore[...]`` suppressions (engine.py) are the
right tool for one-off exceptions, but some packages are *categorically*
exempt from a rule — the wall-clock module reads the clock by design,
and peppering a package with identical per-line pragmas would bury the
real code. A waiver grants one rule to one module subtree, with a
recorded justification, and nothing else: the scope is a dotted-module
prefix match, so a waiver for ``repro.obs.walltime`` can never silence
the same rule in ``repro.core`` or anywhere outside the named subtree
(the leak test in ``tests/test_lint_waivers.py`` pins this down).

Waivers are deliberately a static table in source, not configuration:
adding one is a reviewed code change that must carry its reason.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Waiver:
    """One rule granted to one module subtree, with its justification."""

    #: rule id being waived, e.g. ``"DET003"``
    rule: str
    #: dotted module prefix the waiver covers (the module itself and any
    #: submodule below it)
    module_prefix: str
    #: why the subtree is categorically exempt — shown by --list-waivers
    reason: str

    def covers(self, rule_id: str, module: str | None) -> bool:
        """Whether this waiver silences ``rule_id`` in ``module``."""
        if module is None or rule_id != self.rule:
            return False
        return module == self.module_prefix or module.startswith(self.module_prefix + ".")


#: every standing waiver. Keep this list short: each entry is a hole in
#: the rule's coverage and needs to survive review.
WAIVERS: tuple[Waiver, ...] = (
    Waiver(
        rule="DET003",
        module_prefix="repro.obs.walltime",
        reason=(
            "optional wall-clock span durations live behind this one "
            "module; they are write-only trace annotations, stripped by "
            "canonical_lines() before any determinism comparison"
        ),
    ),
)


def find_waiver(rule_id: str, module: str | None) -> Waiver | None:
    """The waiver covering ``rule_id`` in ``module``, if any."""
    for waiver in WAIVERS:
        if waiver.covers(rule_id, module):
            return waiver
    return None
