"""The copying reference for the reciprocity-abuse engine.

:class:`CopyingReciprocityService` is a
:class:`repro.aas.reciprocity_service.ReciprocityAbuseService` whose
like, follow and comment handlers are the plain versions the production
engine was rewritten from:

* target selection copies its exclusion set (``seen = set(exclude)``)
  and samples scored candidates with ``np.searchsorted``;
* a follow excludes ``record.targeted | {record.account_id}``, a fresh
  union per call;
* a like rebuilds the customer's cooldown exclusions per call, pruning
  expired entries in place, and scans the target's media one
  ``has_liked`` call at a time.

It has no daily cooldown prune (its per-like prune does that job) and
no membership views. It is the oracle the production engine is tested
against.
"""

from __future__ import annotations

import numpy as np

from repro.aas.base import CustomerRecord, IssueOutcome
from repro.aas.reciprocity_service import ReciprocityAbuseService
from repro.platform.models import AccountId, ActionType, ApiSurface
from repro.util.timeutils import days


class CopyingReciprocityService(ReciprocityAbuseService):
    """The reciprocity engine with per-call copies and scans."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ref_cumulative = np.asarray(self.targeting._cumulative, dtype=float)

    def _ref_sample_scored(self) -> AccountId:
        targeting = self.targeting
        draw = targeting.rng.random()
        index = int(np.searchsorted(self._ref_cumulative, draw))
        index = min(index, len(targeting.candidates) - 1)
        return targeting.candidates[index]

    def _ref_select(
        self,
        n: int,
        exclude: set[AccountId],
        use_curated: bool = True,
        restrict_to: set[AccountId] | None = None,
    ) -> list[AccountId]:
        targeting = self.targeting
        picked: list[AccountId] = []
        seen = set(exclude)
        attempts = 0
        max_attempts = 12 * max(n, 1)
        while len(picked) < n and attempts < max_attempts:
            attempts += 1
            from_curated = (
                use_curated
                and targeting.curated is not None
                and targeting.rng.random() < targeting.curated.mix_fraction
            )
            if from_curated:
                candidate = targeting._sample_curated()
            else:
                candidate = self._ref_sample_scored()
            if candidate in seen:
                continue
            if restrict_to is not None and candidate not in restrict_to:
                continue
            if not self.platform.account_exists(candidate):
                continue
            seen.add(candidate)
            picked.append(candidate)
        return picked

    def _like_exclusions(self, record: CustomerRecord) -> set[AccountId]:  # type: ignore[override]
        recent = self._recent_like_targets.get(record.account_id)
        if not recent:
            return set()
        now = self.platform.clock.now
        cooldown = days(self.config.like_retarget_cooldown_days)
        for target, tick in list(recent.items()):
            if now - tick >= cooldown:
                del recent[target]
        return set(recent)

    def _prune_like_cooldowns(self) -> None:
        """No daily pass: every like prunes its customer's entries."""

    def _do_like(self, record: CustomerRecord) -> None:
        exclude = self._like_exclusions(record) | {record.account_id}
        targets = self._ref_select(1, exclude=exclude, restrict_to=self._audience_for(record))
        if not targets:
            return
        target = targets[0]
        media = self.platform.media.media_of(target)
        candidates = [
            m for m in media if not self.platform.media.has_liked(m.media_id, record.account_id)
        ]
        if not candidates:
            return
        choice = candidates[int(self.rng.integers(0, len(candidates)))]
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.like(
                session, choice.media_id, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._recent_like_targets.setdefault(record.account_id, {})[target] = self.platform.clock.now
        self._note_outcome(record, ActionType.LIKE, outcome)

    def _do_follow(self, record: CustomerRecord) -> None:
        targets = self._ref_select(
            1,
            exclude=record.targeted | {record.account_id},
            use_curated=False,
            restrict_to=self._audience_for(record),
        )
        if not targets:
            return
        target = targets[0]
        if self.platform.graph.is_following(record.account_id, target):
            record.targeted.add(target)
            return
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.follow(
                session, target, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        record.targeted.add(target)
        self._note_outcome(record, ActionType.FOLLOW, outcome)
        if outcome is IssueOutcome.DELIVERED:
            record.issued_follows.append(target)
            if ActionType.UNFOLLOW in record.requested_actions:
                due = self.platform.clock.now + days(self.config.unfollow_after_days)
                self._unfollow_queue.append((due, record.account_id, target))

    def _do_comment(self, record: CustomerRecord) -> None:
        targets = self._ref_select(1, exclude={record.account_id}, use_curated=False)
        if not targets:
            return
        media = self.platform.media.media_of(targets[0])
        if not media:
            return
        choice = media[int(self.rng.integers(0, len(media)))]
        text = self.config.comment_texts[int(self.rng.integers(0, len(self.config.comment_texts)))]
        outcome = self._issue(
            record,
            lambda session, endpoint: self.platform.comment(
                session, choice.media_id, text, endpoint, ApiSurface.PRIVATE_MOBILE
            ),
        )
        self._note_outcome(record, ActionType.COMMENT, outcome)
