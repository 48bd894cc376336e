#!/usr/bin/env python
"""Intervention experiments: blocking vs delayed removal (Section 6).

Reproduces the paper's central defensive finding at example scale:

* a *synchronous block* is visible to the service — it detects the
  blocks, drops below the activity threshold, and probes it thereafter;
* a *delayed removal* undoes the same actions a day later but gives the
  service nothing to detect, so it keeps operating (and keeps losing
  its product) indefinitely.

Run with:  python examples/intervention_study.py

Multi-seed mode replicates the experiment across seeds with the
:mod:`repro.fleet` runner — the narrow and broad arms of one seed share
a world snapshot, so each seed pays for its honeypot phase once:

    python examples/intervention_study.py --seeds 6,7,8 --workers 2
"""

from repro.core import Study, StudyConfig
from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.study import INSTA_STAR
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.platform.models import ActionStatus


def main(
    config: StudyConfig | None = None,
    measurement_days: int = 6,
    narrow_days: int = 14,
    delay_days: int = 6,
    block_days: int = 8,
    calibration_days: int = 5,
) -> None:
    print("Building the world and measurement pipeline...")
    study = Study(config if config is not None else StudyConfig.tiny(seed=6))
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement(days_=measurement_days)

    print("\nNarrow intervention: one block bin, one delay bin, one control")
    narrow = study.run_narrow_intervention(
        NarrowInterventionPlan(duration_days=narrow_days), calibration_days=calibration_days
    )
    print(f"  thresholds frozen over {len(narrow.thresholds)} (ASN, action) pairs")
    print()
    print(R.render_fig5(E.fig5_median_follows(narrow, service=INSTA_STAR)))

    removed = sum(
        1
        for activity in narrow.attributed.values()
        for record in activity.records
        if record.status is ActionStatus.REMOVED
    )
    blocked = sum(
        1
        for activity in narrow.attributed.values()
        for record in activity.records
        if record.status is ActionStatus.BLOCKED
    )
    print(f"\n  blocked actions: {blocked}; silently removed follows: {removed}")
    print("  -> both truncate abuse to the threshold; only blocking is visible")

    print("\nBroad intervention: 90% delayed removal, then 90% blocking")
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=delay_days, block_days=block_days),
        calibration_days=calibration_days,
    )
    print()
    print(R.render_fig7(E.fig7_broad_follows(broad, service=INSTA_STAR)))
    print(
        "\n  The delay week passes without any service reaction; the switch"
        "\n  to blocking is detected within a day and treated accounts"
        "\n  scale back — the paper's argument for deferred interventions."
    )


def main_fleet(
    seeds: list[int],
    workers: int = 1,
    measurement_days: int = 6,
    narrow_days: int = 14,
    delay_days: int = 6,
    block_days: int = 8,
    calibration_days: int = 5,
) -> None:
    """The same experiment replicated across seeds via repro.fleet.

    Each seed contributes two replicas — a narrow arm and a broad arm —
    that share one prefix snapshot (world + honeypot phase + learned
    signatures), so the expensive setup runs once per seed no matter how
    many arms fork from it.
    """
    from repro.fleet import FleetRunner, ReplicaSpec

    specs = []
    for seed in seeds:
        config = StudyConfig.tiny(seed=seed)
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/narrow",
                config=config,
                arm="narrow",
                arm_options=(
                    ("measurement_days", measurement_days),
                    ("narrow_days", narrow_days),
                    ("calibration_days", calibration_days),
                ),
            )
        )
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/broad",
                config=config,
                arm="broad",
                arm_options=(
                    ("measurement_days", measurement_days),
                    ("delay_days", delay_days),
                    ("block_days", block_days),
                    ("calibration_days", calibration_days),
                ),
            )
        )
    result = FleetRunner(workers=workers).run(specs)
    print(
        f"Fleet: {len(result.replicas)} replicas, "
        f"{result.prefix_groups} prefix group(s), "
        f"{result.prefix_builds} build(s), "
        f"{result.build_cost_avoided_frac:.0%} of prefix builds avoided"
    )
    for replica in result.replicas:
        print(f"\n=== {replica.name} ===")
        figure = replica.payload.get("fig5") or replica.payload.get("fig7")
        print(figure)
        print(
            f"  blocked actions: {replica.payload['blocked_actions']}; "
            f"removed: {replica.payload['removed_actions']}"
        )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds",
        type=str,
        default="",
        help="comma-separated seeds; runs the fleet mode (default: single seed 6)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="fleet worker processes (fleet mode only)"
    )
    cli_args = parser.parse_args()
    if cli_args.seeds:
        seed_list = [int(part) for part in cli_args.seeds.split(",") if part.strip()]
        main_fleet(seed_list, workers=cli_args.workers)
    else:
        main()
