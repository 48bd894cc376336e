"""``python -m repro.lint`` — lint paths, print findings, exit non-zero.

Exit codes: 0 clean, 1 findings (or unparseable files), 2 usage error.

Two passes share this front end (DESIGN.md §12): the per-file rules
always run; ``--whole-program`` additionally builds the project index
(incrementally, via the digest-keyed cache) and runs the cross-module
rules over it. ``--changed-only`` narrows the per-file pass to files
whose digest differs from the cache — the fast pre-push path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Sequence

from repro.lint.engine import changed_files, lint_paths, lint_whole_program
from repro.lint.findings import Finding
from repro.lint.reporters import render_json, render_text
from repro.lint.rules import (
    all_project_rules,
    all_rules,
    project_rule_ids,
    rule_ids,
    select_project_rules,
    select_rules,
)
from repro.obs.facade import Observability


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & architecture linter for the repro "
            "package (per-file rule families: DET determinism, ARCH "
            "layering, API randomness injection, OBS telemetry; "
            "whole-program families under --whole-program: API taint "
            "flow, SNAP spawn/pickle safety, OBS write-only purity)"
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
        "--whole-program",
        action="store_true",
        help=(
            "also build the project index and run the cross-module rules "
            "(API003, SNAP001-003, OBS002)"
        ),
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "per-file pass analyzes only files whose content digest "
            "differs from the index cache (fast pre-push path); the "
            "whole-program pass, if requested, still sees every file "
            "through the cache"
        ),
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=".repro_lint_cache.json",
        help=(
            "project index cache file keyed by content digest "
            "(default: .repro_lint_cache.json)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="build the project index without reading or writing the cache",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print index cache hit/miss counters (repro.obs telemetry) to "
            "stderr after a --whole-program run"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "subtract findings recorded in this baseline file; only "
            "non-baselined findings are reported and fail the run"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the current findings to a baseline file and exit 0",
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
        for project_rule in all_project_rules():
            print(f"{project_rule.rule_id}  [whole-program]  {project_rule.summary}")
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

    # partition --select across the per-file and whole-program registries
    file_rules = None
    project_rules = None
    if args.select:
        selected = [part.strip() for part in args.select.split(",") if part.strip()]
        file_ids = [rule_id for rule_id in selected if rule_id in set(rule_ids())]
        proj_ids = [rule_id for rule_id in selected if rule_id in set(project_rule_ids())]
        unknown = sorted(set(selected) - set(file_ids) - set(proj_ids))
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        if proj_ids and not args.whole_program:
            parser.error(
                f"rule(s) {', '.join(proj_ids)} need the project index; add --whole-program"
            )
        file_rules = select_rules(file_ids)
        project_rules = select_project_rules(proj_ids)

    cache_path = None if args.no_cache else args.cache

    lint_targets: List[str | Path] = list(args.paths)
    if args.changed_only:
        if cache_path is None:
            parser.error("--changed-only needs the cache; drop --no-cache")
        lint_targets = list(changed_files(args.paths, cache_path))
        if not lint_targets and not args.whole_program:
            print("repro.lint: no files changed since the cached index", file=sys.stderr)
            return 0

    findings: List[Finding] = []
    if not (args.select and not file_rules):
        findings.extend(lint_paths(lint_targets, rules=file_rules))

    obs = Observability(enabled=True)
    if args.whole_program and not (args.select and not project_rules):
        findings.extend(
            lint_whole_program(args.paths, rules=project_rules, cache_path=cache_path, obs=obs)
        )
    findings = sorted(set(findings))

    if args.write_baseline:
        from repro.lint.baseline import write_baseline

        write_baseline(findings, args.write_baseline)
        print(
            f"repro.lint: wrote {len(findings)} finding(s) to baseline "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline:
        from repro.lint.baseline import apply_baseline, load_baseline

        if not Path(args.baseline).exists():
            parser.error(f"no such baseline: {args.baseline}")
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            parser.error(str(exc))
        findings = apply_baseline(findings, baseline)

    report = render_json(findings) if args.format == "json" else render_text(findings)
    print(report)

    if args.stats and args.whole_program:
        snapshot = obs.metrics.snapshot()
        for entry in snapshot["metrics"]:  # type: ignore[union-attr, index]
            name = entry["name"]  # type: ignore[index, call-overload]
            if isinstance(name, str) and name.startswith("lint.index."):
                print(f"{name} = {entry['value']}", file=sys.stderr)  # type: ignore[index, call-overload]

    if findings:
        print(
            f"repro.lint: {len(findings)} finding(s); suppress a justified "
            "exception with `# repro-lint: ignore[RULE] -- reason`",
            file=sys.stderr,
        )
    return 1 if findings else 0
