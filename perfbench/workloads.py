"""The benchmark's workloads: set-up, timed region, checked payload.

Each workload is a closed loop in a single process: the simulation takes
its next step only when the previous one has finished, and one measured
run executes at a time. Refused, rate-limited or blocked *simulated*
actions are simulation outcomes, never failures.

* ``study`` — ``StudyConfig.small`` with a 12-day measurement window.
  Set-up is the world build; the timed region is ``run_standard()`` plus
  ``render_study_report()``: the ``run-study`` path users run. Action-log
  appends, organic and AAS ticks and the streaming classifier dominate;
  countermeasures and fleet do nothing here.
* ``interventions`` — ``StudyConfig.tiny``. Set-up is the world build, the
  honeypot phase, ``learn_signatures()`` and a 5-day measurement; the
  timed region is the narrow intervention (14 days), then the broad one
  (6 days delay + 8 days block). Every action passes the countermeasure
  engine and the threshold policy; calibrations and sweeps read windows
  of a growing log while blocks and delayed removals write to it.
* ``sweep`` — a 16-replica ``tiny`` manifest (2 seeds x 2 honeypot spans x
  2 measurement windows x arms ``standard`` and 1-day ``narrow``). Set-up
  materializes the reuse tree into a fresh snapshot store (prefix builds,
  snapshots, store writes); the timed region is a warm-store tree fleet
  with ``workers=1`` (store reads, restores, short arms). The only
  workload in which ``repro.fleet`` works at all.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import json
import os
import shutil
from dataclasses import replace
from typing import Callable, Iterator

from repro import fleet
from repro.core import experiments
from repro.core.config import StudyConfig
from repro.core.study import InterventionOutcome, Study
from repro.fleet import arms as fleet_arms
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.obs.metrics import format_metric


def payload_digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def counter_values(study: Study) -> dict[str, int]:
    """A study's obs counters by ``name{labels}`` (empty with obs off)."""
    return {
        format_metric(entry["name"], entry["labels"]): entry["value"]
        for entry in study.obs.metrics.snapshot()["metrics"]
        if entry["type"] == "counter"
    }


def _add_delta(totals: dict[str, int], before: dict[str, int], after: dict[str, int]) -> None:
    for key, value in after.items():
        change = value - before.get(key, 0)
        if change:
            totals[key] = totals.get(key, 0) + change


class StudyWorkload:
    name = "study"
    #: the world build is ~0.3 s, a few kernel samples: time it 5 times
    setup_repeats = 5

    def __init__(self, seed: int, observability: bool, workdir: str) -> None:
        self.config = replace(
            StudyConfig.small(seed=seed), measurement_days=12, observability=observability
        )
        self.study: Study | None = None
        self.report = ""
        #: obs counter deltas over the timed region
        self.counters: dict[str, int] = {}

    def setup(self) -> None:
        self.study = Study(self.config)

    def run(self) -> int:
        """The timed region; returns the actions appended to the log."""
        study = self.study
        assert study is not None
        log = study.platform.log
        rows, before = len(log), counter_values(study)
        dataset = study.run_standard()
        self.report = experiments.render_study_report(study, dataset)
        _add_delta(self.counters, before, counter_values(study))
        return len(log) - rows

    def payload(self) -> str:
        return self.report

    def close(self) -> None:
        self.study = None


def _outcome_summary(outcome: InterventionOutcome) -> dict:
    """Each service's attributed-record and status counts, plus thresholds."""
    services = {}
    for name, activity in sorted(outcome.attributed.items()):
        statuses = collections.Counter(record.status.value for record in activity.records)
        services[name] = {"records": len(activity.records), "status": dict(sorted(statuses.items()))}
    thresholds = sorted(
        [entry.asn, entry.action_type.value, entry.daily_limit, entry.subject.value, entry.mixed_asn]
        for entry in outcome.thresholds.entries.values()
    )
    return {
        "name": outcome.name,
        "start_day": outcome.start_day,
        "end_day": outcome.end_day,
        "switch_day": outcome.switch_day,
        "services": services,
        "thresholds": thresholds,
    }


class InterventionsWorkload(StudyWorkload):
    name = "interventions"
    setup_repeats = 3

    def __init__(self, seed: int, observability: bool, workdir: str) -> None:
        super().__init__(seed, observability, workdir)
        self.config = replace(StudyConfig.tiny(seed=seed), observability=observability)
        self.outcomes: list[InterventionOutcome] = []

    def setup(self) -> None:
        study = Study(self.config)
        study.run_honeypot_phase()
        study.learn_signatures()
        study.run_measurement(5)
        self.study = study

    def run(self) -> int:
        study = self.study
        assert study is not None
        log = study.platform.log
        rows, before = len(log), counter_values(study)
        self.outcomes = [
            study.run_narrow_intervention(NarrowInterventionPlan(duration_days=14)),
            study.run_broad_intervention(BroadInterventionPlan(delay_days=6, block_days=8)),
        ]
        _add_delta(self.counters, before, counter_values(study))
        return len(log) - rows

    def payload(self) -> str:
        summary = [_outcome_summary(outcome) for outcome in self.outcomes]
        return json.dumps(summary, sort_keys=True, indent=1) + "\n"


class SweepWorkload:
    name = "sweep"
    #: one materialization is ~8 s of set-up, already many kernel samples
    setup_repeats = 1

    def __init__(self, seed: int, observability: bool, workdir: str) -> None:
        manifest = fleet.SweepManifest(
            name="perfbench-sweep",
            preset="tiny",
            prefix=fleet.PREFIX_SIGNATURES,
            seeds=(seed, seed + 1),
            honeypot_days=(4, 8),
            measurement_days=(2, 4),
            arms=(
                fleet.ArmSpec(arm="standard"),
                fleet.ArmSpec(
                    arm="narrow",
                    options=(("measurement_days", 0), ("narrow_days", 1), ("calibration_days", 1)),
                ),
            ),
        )
        base = replace(StudyConfig.tiny(), observability=observability)
        self.specs = fleet.expand_manifest(manifest, base_config=base)
        self.root = os.path.join(workdir, "store")
        self.result: fleet.FleetResult | None = None
        self.counters: dict[str, int] = {}
        #: wraps each replica's arm call (the traced run adds a span)
        self.wrap_replica: Callable[[Callable], Callable] = lambda fn: fn

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        fleet.materialize_tree(self.specs, fleet.SnapshotStore(self.root))

    def run(self) -> int:
        appended = [0]
        with self._counting_arms(appended):
            runner = fleet.FleetRunner(
                workers=1, strategy="tree", store=fleet.SnapshotStore(self.root)
            )
            self.result = runner.run(self.specs)
        return appended[0]

    @contextlib.contextmanager
    def _counting_arms(self, appended: list[int]) -> Iterator[None]:
        """Count each replica's log appends and obs counter deltas.

        Replicas run in this process (``workers=1``), and the runner
        resolves each arm by name when the replica starts.
        """
        resolve = fleet_arms.resolve_arm

        def counted_resolve(name: str):
            arm = resolve(name)

            def counted(study: Study, options: dict) -> dict:
                log = study.platform.log
                rows, before = len(log), counter_values(study)
                payload = arm(study, options)
                appended[0] += len(log) - rows
                _add_delta(self.counters, before, counter_values(study))
                return payload

            return self.wrap_replica(counted)

        fleet_arms.resolve_arm = counted_resolve
        try:
            yield
        finally:
            fleet_arms.resolve_arm = resolve

    def payload(self) -> str:
        assert self.result is not None
        return self.result.merged_payload_text()

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {
    workload.name: workload for workload in (StudyWorkload, InterventionsWorkload, SweepWorkload)
}
