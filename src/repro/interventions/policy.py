"""The countermeasure policy wiring thresholds + bins into the platform.

For every attempted action from a thresholded ASN, the policy counts the
subject account's attempts today; once past the frozen daily limit, the
subject's bin treatment applies:

* BLOCK — synchronous failure (visible to the service),
* DELAY_REMOVE — the action lands, then is silently undone a day later.
  Per the paper, delayed removal is only applicable to ``follow``
  actions ("it was not possible to apply a delayed countermeasure on
  likes"); a delay treatment on any other action type degrades to ALLOW.

Control-bin accounts are never touched, however far past the threshold
they go.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interventions.bins import BinAssignment
from repro.interventions.thresholds import CountSubject, ThresholdTable
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import AccountId, ActionType
from repro.util.timeutils import HOURS_PER_DAY


@dataclass
class ThresholdBinPolicy:
    """A :class:`repro.platform.countermeasures.CountermeasurePolicy`."""

    thresholds: ThresholdTable
    assignment: BinAssignment
    #: optional per-action-type override for *treated* subjects — the
    #: paper's epilogue regime blocked likes while delay-removing follows
    #: simultaneously (Section 6.4, "Epilogue")
    per_action_treatments: dict[ActionType, CountermeasureDecision] = field(default_factory=dict)
    #: attempts per (subject account, action type, day) — counted here,
    #: at decision time, so blocked attempts consume quota too
    _attempts: dict[tuple[AccountId, ActionType, int], int] = field(default_factory=dict)
    #: decisions taken, for observability
    decisions_applied: dict[CountermeasureDecision, int] = field(default_factory=dict)

    def set_assignment(self, assignment: BinAssignment) -> None:
        """Swap treatments mid-experiment (broad design: delay -> block).

        Thresholds and attempt counters are intentionally preserved.
        """
        self.assignment = assignment

    def _subject_of(self, context: ActionContext, subject: CountSubject) -> AccountId | None:
        if subject is CountSubject.ACTOR:
            return context.actor
        return context.target_account

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        entry = self.thresholds.get(context.endpoint.asn, context.action_type)
        if entry is None:
            return CountermeasureDecision.ALLOW
        subject = self._subject_of(context, entry.subject)
        if subject is None:
            return CountermeasureDecision.ALLOW
        day = context.tick // HOURS_PER_DAY
        key = (subject, context.action_type, day)
        attempts = self._attempts.get(key, 0) + 1
        self._attempts[key] = attempts
        if attempts <= entry.daily_limit:
            return CountermeasureDecision.ALLOW
        treatment = self.assignment.treatment_of(subject)
        if treatment is not CountermeasureDecision.ALLOW and context.action_type in self.per_action_treatments:
            treatment = self.per_action_treatments[context.action_type]
        if (
            treatment is CountermeasureDecision.DELAY_REMOVE
            and context.action_type is not ActionType.FOLLOW
        ):
            return CountermeasureDecision.ALLOW
        if treatment is not CountermeasureDecision.ALLOW:
            self.decisions_applied[treatment] = self.decisions_applied.get(treatment, 0) + 1
        return treatment
