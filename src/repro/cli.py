"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run-study`` — run the full measurement pipeline and print every
  business table (Tables 5-11, Figure 2, Figures 3-4 medians). With
  ``--seeds 42,43,44`` the pipeline runs once per seed as a
  :mod:`repro.fleet` replica fleet (``--workers N`` fans the replicas
  over worker processes; output is byte-identical for any N).
* ``run-interventions`` — continue with the narrow and broad
  intervention experiments and print the Figure 5-7 series.
* ``sweep`` — expand a declarative manifest (seeds × populations ×
  honeypot ablations × service mixes × arm grids) into a replica fleet,
  run it through the tree-reuse orchestrator, and print the merged
  payload; ``--store DIR`` persists prefix snapshots across
  invocations.
* ``list-presets`` — show the available scale presets.

Example::

    python -m repro run-study --preset tiny --seed 7
    python -m repro run-study --preset small --output report.txt
    python -m repro run-interventions --preset tiny
    python -m repro sweep manifest.json --workers 4 --store .snapcache

Progress comes from the study's own ``repro.obs`` phase spans:
``--verbose`` attaches a console reporter to them, and ``--trace PATH``
dumps the full JSONL trace (spans + metrics snapshot) for
``python -m repro.obs summarize``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, TextIO

from repro.core import Study, StudyConfig
from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.study import INSTA_STAR
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.obs import ConsoleReporter, Observability
from repro.obs.walltime import read_peak_rss_kb, read_wall_seconds

PRESETS: dict[str, Callable[[int], StudyConfig]] = {
    "tiny": StudyConfig.tiny,
    "small": StudyConfig.small,
    "paper": StudyConfig.paper_shaped,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Following Their Footsteps' (IMC 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--preset", choices=sorted(PRESETS), default="tiny")
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument(
            "--output", type=str, default="", help="write the report to a file instead of stdout"
        )
        sub.add_argument(
            "--verbose",
            action="store_true",
            help="print phase-span progress lines to stderr",
        )
        sub.add_argument(
            "--trace",
            type=str,
            default="",
            help="write a repro.obs JSONL trace (spans + metrics) to this path",
        )

    run_study = subparsers.add_parser("run-study", help="measurement pipeline + business tables")
    add_common(run_study)
    run_study.add_argument(
        "--measurement-days", type=int, default=0, help="override the preset's window length"
    )
    run_study.add_argument(
        "--seeds",
        type=str,
        default="",
        help=(
            "comma-separated seed list; runs one replica per seed via the "
            "fleet runner and prints each seed's report (overrides --seed)"
        ),
    )
    run_study.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for --seeds fleets (default: REPRO_WORKERS "
            "or 1); merged output is byte-identical for any value"
        ),
    )

    run_interventions = subparsers.add_parser(
        "run-interventions", help="narrow + broad intervention experiments"
    )
    add_common(run_interventions)
    run_interventions.add_argument("--narrow-days", type=int, default=14)

    run_epilogue = subparsers.add_parser(
        "run-epilogue", help="the Section 6.4 arms race (migration, out-of-stock)"
    )
    add_common(run_epilogue)
    run_epilogue.add_argument("--days", type=int, default=30)
    run_epilogue.add_argument(
        "--relearn-days",
        type=int,
        default=0,
        help="defender re-learns signatures every N days (0 = frozen defender)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run a declarative sweep manifest through the fleet orchestrator"
    )
    sweep.add_argument("manifest", help="path to a sweep manifest JSON file")
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes (default: REPRO_WORKERS or 1); merged "
            "output is byte-identical for any value"
        ),
    )
    sweep.add_argument(
        "--store",
        type=str,
        default="",
        help=(
            "disk snapshot store directory: prefix snapshots persist "
            "here across invocations (created if missing)"
        ),
    )
    sweep.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        help="LRU-evict the disk store past this many bytes",
    )
    sweep.add_argument(
        "--output", type=str, default="", help="write the merged payload to a file instead of stdout"
    )
    sweep.add_argument(
        "--trace",
        type=str,
        default="",
        help=(
            "write the merged sweep trace (fleet roll-up segment + one "
            "segment per replica) to this path"
        ),
    )

    subparsers.add_parser("list-presets", help="show available scale presets")
    return parser


def _make_study(config: StudyConfig, args) -> Study:
    """Build a Study with the CLI's observability wiring attached.

    ``--verbose`` and ``--trace`` force telemetry on (they are explicit
    requests for it); otherwise the config switch decides. Traces
    written by the CLI carry wall-clock span durations and peak-RSS
    stamps — the waived, non-canonical extras — since a human asked for
    them.
    """
    wants_obs = bool(getattr(args, "verbose", False) or getattr(args, "trace", ""))
    tracing = bool(getattr(args, "trace", ""))
    obs = Observability(
        enabled=config.observability or wants_obs,
        wall_source=read_wall_seconds if tracing else None,
        rss_source=read_peak_rss_kb if tracing else None,
    )
    if getattr(args, "verbose", False):
        obs.add_listener(ConsoleReporter(sys.stderr))
    return Study(config, obs=obs)


def _write_trace(study: Study, args) -> None:
    path = getattr(args, "trace", "")
    if path:
        study.obs.dump_trace(
            path,
            meta={"command": args.command, "preset": args.preset, "seed": args.seed},
        )
        print(f"Wrote trace to {path}", file=sys.stderr)


def _run_measurement(args, out: TextIO) -> Study:
    config = PRESETS[args.preset](seed=args.seed)
    if getattr(args, "measurement_days", 0):
        config = config.with_measurement_days(args.measurement_days)
    study = _make_study(config, args)
    study.run_honeypot_phase()
    study.learn_signatures()
    dataset = study.run_measurement()
    print(E.render_study_report(study, dataset), file=out)
    return study


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(f"--seeds must be comma-separated integers: {exc}")
    if not seeds:
        raise SystemExit("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        raise SystemExit("--seeds must not repeat a seed")
    return seeds


def _run_study_fleet(args, out: TextIO) -> int:
    from repro.core.config import resolve_workers
    from repro.fleet import FleetRunner, seed_sweep
    from repro.obs.trace import render_trace

    seeds = _parse_seeds(args.seeds)
    config = PRESETS[args.preset](seed=seeds[0])
    arm_options: tuple[tuple[str, object], ...] = ()
    if getattr(args, "measurement_days", 0):
        arm_options = (("measurement_days", args.measurement_days),)
    specs = seed_sweep(config, seeds, arm="report", arm_options=arm_options)
    runner = FleetRunner(workers=resolve_workers(args.workers))
    result = runner.run(specs)
    reports = []
    for replica in result.replicas:
        reports.append(
            f"=== {replica.name} (seed {replica.seed}) ===\n\n"
            f"{replica.payload['report']}"
        )
    print("\n\n".join(reports), file=out)
    path = getattr(args, "trace", "")
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render_trace(result.merged_trace_lines()))
        print(f"Wrote merged trace to {path}", file=sys.stderr)
    return 0


def cmd_run_study(args, out: TextIO) -> int:
    if getattr(args, "seeds", ""):
        return _run_study_fleet(args, out)
    study = _run_measurement(args, out)
    _write_trace(study, args)
    return 0


def cmd_run_interventions(args, out: TextIO) -> int:
    study = _run_measurement(args, out)
    narrow = study.run_narrow_intervention(
        NarrowInterventionPlan(duration_days=args.narrow_days), calibration_days=5
    )
    study.run_days(6)  # washout before the broad design
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=6, block_days=8), calibration_days=5
    )
    sections = [
        R.render_fig5(E.fig5_median_follows(narrow, service=INSTA_STAR)),
        R.render_fig6(E.fig6_hublaagram_likes(narrow)),
        R.render_fig7(E.fig7_broad_follows(broad, service=INSTA_STAR)),
    ]
    print("\n\n".join(sections), file=out)
    _write_trace(study, args)
    return 0


def cmd_run_epilogue(args, out: TextIO) -> int:
    config = PRESETS[args.preset](seed=args.seed)
    config = dataclasses.replace(config, enable_migration=True)
    study = _make_study(config, args)
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement(days_=min(7, config.measurement_days))
    outcome = study.run_epilogue(
        days_=args.days,
        defender_relearn_days=args.relearn_days or None,
    )
    lines = [f"Epilogue (days {outcome.start_day}-{outcome.end_day}):"]
    for service, moves in sorted(outcome.migrations.items()):
        if moves:
            history = "; ".join(label for _, label in moves)
            lines.append(f"  {service} migrated {len(moves)}x: {history}")
    lines.append(f"  signature coverage: {outcome.signature_coverage:.1%}")
    lines.append(f"  Hublaagram sales suspended: {outcome.hublaagram_sales_suspended}")
    print("\n".join(lines), file=out)
    _write_trace(study, args)
    return 0


def cmd_sweep(args, out: TextIO) -> int:
    from repro.core.config import resolve_workers
    from repro.fleet import (
        FleetRunner,
        ManifestError,
        SnapshotStore,
        expand_manifest,
        load_manifest,
    )
    from repro.obs.trace import render_trace

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        raise SystemExit(f"sweep: {exc}")
    specs = expand_manifest(manifest)
    store = (
        SnapshotStore(args.store, max_bytes=args.store_max_bytes) if args.store else None
    )
    runner = FleetRunner(workers=resolve_workers(args.workers), store=store)
    result = runner.run(specs)
    out.write(result.merged_payload_text())
    if args.trace:
        lines = result.fleet_trace_segment() + result.merged_trace_lines()
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(render_trace(lines))
        print(f"Wrote sweep trace to {args.trace}", file=sys.stderr)
    print(
        f"sweep {manifest.name}: {len(result.replicas)} replicas, "
        f"phase builds {result.phase_builds}/"
        f"{result.phase_units} "
        f"(build cost avoided {result.build_cost_avoided_frac:.1%})",
        file=sys.stderr,
    )
    return 0


def cmd_list_presets(args, out: TextIO) -> int:
    for name, factory in sorted(PRESETS.items()):
        config = factory(42)
        print(
            f"{name:<6} population={config.population.size:<6} "
            f"measurement_days={config.measurement_days:<4} "
            f"budget_scale={config.budget_scale}",
            file=out,
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    output_path = getattr(args, "output", "")
    if output_path:
        with open(output_path, "w") as out:
            return _dispatch(args, out)
    return _dispatch(args, sys.stdout)


def _dispatch(args, out: TextIO) -> int:
    handlers = {
        "run-study": cmd_run_study,
        "run-interventions": cmd_run_interventions,
        "run-epilogue": cmd_run_epilogue,
        "sweep": cmd_sweep,
        "list-presets": cmd_list_presets,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
