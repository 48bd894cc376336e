"""Intervention experiment harnesses (paper Sections 6.3-6.4).

:class:`InterventionController` owns the live policy: it computes the
frozen threshold table from a calibration window, installs the policy in
the platform's countermeasure engine, and (for the broad design)
schedules the mid-experiment switch from delayed removal to blocking.

The scenario driver keeps advancing the world; these classes only manage
the policy lifecycle and remember the experiment's day boundaries so the
metrics module can cut the right windows afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.classifier import AASClassifier
from repro.interventions.bins import BinAssignment
from repro.interventions.policy import ThresholdBinPolicy
from repro.interventions.thresholds import (
    CountSubject,
    ThresholdTable,
    compute_thresholds,
)
from repro.platform.instagram import InstagramPlatform
from repro.util.timeutils import days


@dataclass(frozen=True)
class NarrowInterventionPlan:
    """Section 6.3: six weeks, one block bin, one delay bin, one control."""

    duration_days: int = 42
    assignment: BinAssignment = field(default_factory=BinAssignment.narrow)


@dataclass(frozen=True)
class BroadInterventionPlan:
    """Section 6.4: one week of delay for 90%, then one week of block."""

    delay_days: int = 6
    block_days: int = 8
    control_bin: int = 0

    @property
    def duration_days(self) -> int:
        return self.delay_days + self.block_days


class InterventionController:
    """Lifecycle manager for one intervention experiment."""

    def __init__(self, platform: InstagramPlatform, classifier: AASClassifier):
        self.platform = platform
        self.classifier = classifier
        self.policy: ThresholdBinPolicy | None = None
        self.thresholds: ThresholdTable | None = None
        self.start_day: int | None = None
        self.end_day: int | None = None
        self.switch_day: int | None = None

    # ------------------------------------------------------------------
    # Threshold calibration
    # ------------------------------------------------------------------

    def calibrate(
        self,
        calibration_start_tick: int,
        calibration_end_tick: int,
        subject_by_asn: dict[int, CountSubject],
    ) -> ThresholdTable:
        """Compute and freeze thresholds from a pre-experiment window."""
        attributed = self.classifier.sweep(calibration_start_tick, calibration_end_tick)
        aas_records = [r for activity in attributed.values() for r in activity.records]
        benign = self.classifier.benign_records(calibration_start_tick, calibration_end_tick)
        self.thresholds = compute_thresholds(aas_records, benign, subject_by_asn)
        return self.thresholds

    # ------------------------------------------------------------------
    # Experiment lifecycle
    # ------------------------------------------------------------------

    def start(self, assignment: BinAssignment) -> ThresholdBinPolicy:
        """Install the policy with the given treatment assignment."""
        if self.thresholds is None:
            raise RuntimeError("calibrate() must run before start()")
        if self.policy is not None:
            raise RuntimeError("an experiment is already running")
        self.policy = ThresholdBinPolicy(thresholds=self.thresholds, assignment=assignment)
        self.platform.countermeasures.add_policy(self.policy)
        self.start_day = self.platform.clock.day
        return self.policy

    def start_narrow(self, plan: NarrowInterventionPlan | None = None) -> ThresholdBinPolicy:
        plan = plan if plan is not None else NarrowInterventionPlan()
        policy = self.start(plan.assignment)
        self.end_day = self.platform.clock.day + plan.duration_days
        return policy

    def start_broad(self, plan: BroadInterventionPlan | None = None) -> ThresholdBinPolicy:
        """Broad design: delay now, switch to block after ``delay_days``."""
        plan = plan if plan is not None else BroadInterventionPlan()
        policy = self.start(BinAssignment.broad_delay(plan.control_bin))
        self.end_day = self.platform.clock.day + plan.duration_days
        self.switch_day = self.platform.clock.day + plan.delay_days

        def _switch(tick: int) -> None:
            if self.policy is policy:  # still the live experiment
                policy.set_assignment(BinAssignment.broad_block(plan.control_bin))

        self.platform.clock.call_after(days(plan.delay_days), _switch)
        return policy

    def stop(self) -> None:
        """Remove the live policy (experiment over)."""
        if self.policy is None:
            return
        self.platform.countermeasures.remove_policy(self.policy)
        self.policy = None
