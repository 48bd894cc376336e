"""``python -m repro.lint`` — lint paths, print findings, exit non-zero.

Exit codes: 0 clean, 1 findings (or unparseable files), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.engine import lint_paths
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import Rule, all_rules, rule_ids, select_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & architecture linter for the repro "
            "package (rule families: DET determinism, ARCH layering, API "
            "randomness injection, OBS telemetry)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and summary, then exit",
    )
    parser.add_argument(
        "--list-waivers",
        action="store_true",
        help="print every module-scoped waiver and its reason, then exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    if args.list_waivers:
        from repro.lint.waivers import WAIVERS

        for waiver in WAIVERS:
            print(f"{waiver.rule}  {waiver.module_prefix}.*  {waiver.reason}")
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m repro.lint src tests)")

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    not_python = [
        path for path in args.paths if Path(path).is_file() and Path(path).suffix != ".py"
    ]
    if not_python:
        parser.error(f"not a python file: {', '.join(not_python)}")

    rules: list[Rule] | None = None
    if args.select:
        selected = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = sorted(set(selected) - set(rule_ids()))
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = select_rules(selected)

    findings = lint_paths(args.paths, rules=rules)

    report = render_json(findings) if args.format == "json" else render_text(findings)
    print(report)

    if findings:
        print(
            f"repro.lint: {len(findings)} finding(s); suppress a justified "
            "exception with `# repro-lint: ignore[RULE] -- reason`",
            file=sys.stderr,
        )
    return 1 if findings else 0
