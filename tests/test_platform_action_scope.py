"""Every platform action takes the one deferred path.

Each action queues its log row in the open ``action_batch`` scope; a call
made with no scope open opens a one-action scope itself. These tests pin
that implicit scope (ids, BLOCKED rows, rejected actions, nesting,
delayed removal) and guard that a whole study writes every row through
:meth:`ActionLog.append_batch`, never through the scalar append.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core import Study, StudyConfig
from repro.interventions.experiment import BroadInterventionPlan
from repro.platform.actions import ActionLog
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import ActionBlockedError, InvalidActionError
from repro.platform.models import ActionStatus, ActionType

from tests.test_platform_actionlog_batch import _HOME, _FixedPolicy, _world


def _each_action(platform, sessions, media):
    """One call of each action, outside any scope: ``(type, call)`` pairs."""
    return [
        (ActionType.FOLLOW, lambda: platform.follow(sessions[1], 2, _HOME)),
        (ActionType.LIKE, lambda: platform.like(sessions[1], media[2][0], _HOME)),
        (ActionType.COMMENT, lambda: platform.comment(sessions[1], media[2][0], "hi", _HOME)),
        (ActionType.UNFOLLOW, lambda: platform.unfollow(sessions[1], 2, _HOME)),
        (ActionType.POST, lambda: platform.post(sessions[1], _HOME)[0]),
    ]


class TestImplicitScope:
    def test_returned_id_names_the_written_row(self):
        platform, sessions, media = _world()
        for action_type, call in _each_action(platform, sessions, media):
            before = len(platform.log)
            action_id = call()
            assert action_id == before
            assert len(platform.log) == before + 1
            row = platform.log.get(action_id)
            assert row.action_id == action_id
            assert row.action_type is action_type
            assert row.status is ActionStatus.DELIVERED
            assert platform._batch is None

    @pytest.mark.parametrize("index", range(5))
    def test_block_writes_one_blocked_row_and_closes_the_scope(self, index):
        platform, sessions, media = _world()
        action_type, call = _each_action(platform, sessions, media)[index]
        if action_type is ActionType.UNFOLLOW:
            platform.follow(sessions[1], 2, _HOME)
        platform.countermeasures.add_policy(_FixedPolicy(CountermeasureDecision.BLOCK))
        before = len(platform.log)
        with pytest.raises(ActionBlockedError):
            call()
        assert len(platform.log) == before + 1
        row = platform.log.get(before)
        assert (row.action_type, row.status) == (action_type, ActionStatus.BLOCKED)
        assert platform._batch is None
        assert platform.countermeasures.blocked_count == 1

    def test_rejected_action_writes_nothing(self):
        platform, sessions, media = _world()
        platform.follow(sessions[1], 2, _HOME)
        platform.like(sessions[1], media[2][0], _HOME)
        before = len(platform.log)
        with pytest.raises(InvalidActionError):
            platform.follow(sessions[1], 2, _HOME)
        with pytest.raises(InvalidActionError):
            platform.like(sessions[1], media[2][0], _HOME)
        with pytest.raises(InvalidActionError):
            platform.unfollow(sessions[1], 3, _HOME)
        with pytest.raises(InvalidActionError):
            platform.comment(sessions[1], media[2][0], "", _HOME)
        assert len(platform.log) == before
        assert platform._batch is None

    def test_a_call_inside_an_open_scope_joins_it(self):
        platform, sessions, media = _world()
        before = len(platform.log)
        with platform.action_batch():
            scope = platform._batch
            with platform.action_batch():
                assert platform._batch is scope
                assert platform.follow(sessions[1], 2, _HOME) == before
            assert platform._batch is scope
            assert platform.comment(sessions[1], media[2][0], "hi", _HOME) == before + 1
            assert platform.post(sessions[1], _HOME)[0] == before + 2
            assert len(platform.log) == before
        assert len(platform.log) == before + 3
        assert platform._batch is None

    def test_delayed_removal_fires_on_the_returned_id(self):
        platform, sessions, media = _world(_FixedPolicy(CountermeasureDecision.DELAY_REMOVE))
        follow_id = platform.follow(sessions[1], 2, _HOME)
        like_id = platform.like(sessions[1], media[2][0], _HOME)
        platform.clock.advance(platform.countermeasures.removal_delay_ticks)
        assert platform.log.get(follow_id).status is ActionStatus.REMOVED
        assert platform.log.get(like_id).status is ActionStatus.REMOVED
        assert not platform.graph.is_following(1, 2)
        assert not platform.media.has_liked(media[2][0], 1)
        removed = [r.action_id for r in platform.log if r.status is ActionStatus.REMOVED]
        assert removed == [follow_id, like_id]


class TestUndoLike:
    def _delayed_like(self):
        platform, sessions, media = _world(_FixedPolicy(CountermeasureDecision.DELAY_REMOVE))
        like_id = platform.like(sessions[1], media[2][0], _HOME)
        return platform, like_id

    def test_removed_media_leaves_the_row_delivered(self):
        platform, like_id = self._delayed_like()
        platform.media.remove_account_media(2)
        platform.clock.advance(platform.countermeasures.removal_delay_ticks)
        assert platform.log.get(like_id).status is ActionStatus.DELIVERED

    def test_other_lookup_errors_propagate(self):
        platform, _ = self._delayed_like()
        with mock.patch.object(platform.media, "get", side_effect=RuntimeError("store down")):
            with pytest.raises(RuntimeError, match="store down"):
                platform.clock.advance(platform.countermeasures.removal_delay_ticks)


def test_study_writes_every_row_through_append_batch():
    """Honeypot phase (lived-in set-up follows included), measurement and
    a broad intervention: no row takes a one-row adapter
    (``log_action``, ``append``); every row arrives in a scope's batch."""

    def _no_scalar_append(self, *args, **kwargs):
        raise AssertionError("a row bypassed the action batch scope")

    study = Study(StudyConfig.tiny(seed=5))
    with mock.patch.multiple(
        ActionLog, log_action=_no_scalar_append, append=_no_scalar_append
    ):
        study.run_honeypot_phase()
        study.learn_signatures()
        study.run_measurement(days_=2)
        study.run_broad_intervention(
            BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=1
        )
    log = study.platform.log
    kinds = {row.action_type for row in log}
    assert {ActionType.FOLLOW, ActionType.LIKE, ActionType.COMMENT, ActionType.POST} <= kinds
    assert study.honeypots.self_action_ids  # lived-in set-up follows ran
    statuses = {row.status for row in log}
    assert {ActionStatus.BLOCKED, ActionStatus.REMOVED} <= statuses
