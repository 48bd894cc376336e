"""Rule protocol and the per-module context rules inspect.

A rule is a class with a ``rule_id``, a one-line ``summary`` (shown by
``--list-rules`` and quoted in README), an optional tuple of path
suffixes where it is intentionally silent, and a ``check`` method that
walks the module AST and yields findings. Rules never read files — the
engine hands them a fully-parsed :class:`ModuleContext`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Iterator

from repro.lint.findings import Finding


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule may inspect about one parsed module."""

    #: path as given on the command line, normalized to posix separators
    path: str
    #: dotted module name when the file lives under the ``repro`` package
    #: (``repro.platform.clock``); ``None`` for tests and loose scripts
    module: str | None
    tree: ast.Module
    source: str

    @property
    def layer(self) -> str | None:
        """First package component below ``repro`` (``'platform'``, ...).

        ``None`` for files outside the package and for top-level modules
        such as ``repro.cli`` where ``repro.<name>`` is itself a module.
        """
        if self.module is None:
            return None
        parts = self.module.split(".")
        if len(parts) < 3 or parts[0] != "repro":
            return None
        return parts[1]


class Rule:
    """Base class; concrete rules override the class vars and ``check``."""

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    #: posix path suffixes where this rule is intentionally silent
    exempt_suffixes: ClassVar[tuple[str, ...]] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Whether the rule runs at all for this file (path exemptions)."""
        return not any(ctx.path.endswith(suffix) for suffix in self.exempt_suffixes)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Construct a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule_id,
            message=message,
        )


def dotted_name(node: ast.expr) -> str | None:
    """Flatten an attribute chain to ``a.b.c``; ``None`` if not a chain.

    Rules match call sites syntactically (``np.random.seed`` is the
    spelling used across this codebase), so a chain rooted at anything
    other than a plain name (e.g. ``get_mod().random``) is out of scope.
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
