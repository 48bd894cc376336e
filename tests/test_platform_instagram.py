"""Tests for the InstagramPlatform facade."""

import pytest

from repro.platform import (
    ActionBlockedError,
    ActionStatus,
    ActionType,
    InstagramPlatform,
)
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import (
    InvalidActionError,
    UnknownAccountError,
)
from repro.platform.models import Profile


@pytest.fixture
def world(endpoint):
    platform = InstagramPlatform()
    alice = platform.create_account("alice", "pw-a")
    bob = platform.create_account("bob", "pw-b")
    session = platform.login("alice", "pw-a", endpoint)
    return platform, alice, bob, session, endpoint


class TestAccounts:
    def test_create_and_resolve(self, world):
        platform, alice, *_ = world
        assert platform.resolve_username("alice") == alice.account_id
        assert platform.account_exists(alice.account_id)

    def test_duplicate_username_rejected(self, world):
        platform, *_ = world
        with pytest.raises(ValueError):
            platform.create_account("alice", "zz")

    def test_profile_defaults_empty(self, world):
        platform, alice, *_ = world
        assert alice.profile.completeness == 0.0

    def test_custom_profile(self, endpoint):
        platform = InstagramPlatform()
        account = platform.create_account(
            "full", "pw", Profile(display_name="F", biography="b", has_profile_picture=True)
        )
        assert account.profile.completeness == 1.0

    def test_delete_account_scrubs_state(self, world):
        platform, alice, bob, session, endpoint = world
        platform.follow(session, bob.account_id, endpoint)
        media = platform.media.create(bob.account_id, 0)
        platform.like(session, media.media_id, endpoint)
        platform.delete_account(alice.account_id)
        assert not platform.account_exists(alice.account_id)
        assert platform.follower_count(bob.account_id) == 0
        assert platform.media.like_count(media.media_id) == 0
        with pytest.raises(UnknownAccountError):
            platform.get_account(alice.account_id)
        # the log is the measurement record: retained
        assert len(platform.log.by_actor(alice.account_id)) == 2

    def test_deleted_account_cannot_act(self, world):
        platform, alice, bob, session, endpoint = world
        platform.delete_account(alice.account_id)
        with pytest.raises(UnknownAccountError):
            platform.follow(session, bob.account_id, endpoint)


class TestActions:
    def test_follow_updates_graph_and_notifies(self, world):
        platform, alice, bob, session, endpoint = world
        record = platform.log.get(platform.follow(session, bob.account_id, endpoint))
        assert record.status is ActionStatus.DELIVERED
        assert platform.graph.is_following(alice.account_id, bob.account_id)
        notifications = platform.notifications.drain(bob.account_id)
        assert len(notifications) == 1
        assert notifications[0].action_type is ActionType.FOLLOW

    def test_double_follow_invalid(self, world):
        platform, alice, bob, session, endpoint = world
        platform.follow(session, bob.account_id, endpoint)
        with pytest.raises(InvalidActionError):
            platform.follow(session, bob.account_id, endpoint)

    def test_like_flow(self, world):
        platform, alice, bob, session, endpoint = world
        media = platform.media.create(bob.account_id, 0)
        record = platform.log.get(platform.like(session, media.media_id, endpoint))
        assert platform.media.has_liked(media.media_id, alice.account_id)
        assert record.target_account == bob.account_id
        assert len(platform.notifications.pending(bob.account_id)) == 1

    def test_unfollow_is_silent(self, world):
        platform, alice, bob, session, endpoint = world
        platform.follow(session, bob.account_id, endpoint)
        platform.notifications.drain(bob.account_id)
        platform.unfollow(session, bob.account_id, endpoint)
        assert platform.notifications.pending(bob.account_id) == []
        assert not platform.graph.is_following(alice.account_id, bob.account_id)

    def test_comment_requires_text(self, world):
        platform, alice, bob, session, endpoint = world
        media = platform.media.create(bob.account_id, 0)
        with pytest.raises(InvalidActionError):
            platform.comment(session, media.media_id, "", endpoint)

    def test_post_creates_media(self, world):
        platform, alice, bob, session, endpoint = world
        action_id, media = platform.post(session, endpoint, caption="c", hashtags=("dogs",))
        record = platform.log.get(action_id)
        assert media.owner == alice.account_id
        assert record.action_type is ActionType.POST
        assert record.target_media == media.media_id
        assert platform.media.media_of(alice.account_id) == [media]

    def test_engagement_rate(self, world):
        platform, alice, bob, session, endpoint = world
        media = platform.media.create(bob.account_id, 0)
        platform.like(session, media.media_id, endpoint)
        platform.follow(session, bob.account_id, endpoint)
        assert platform.engagement_rate(bob.account_id) == pytest.approx(1.0)

    def test_every_action_is_logged(self, world):
        platform, alice, bob, session, endpoint = world
        platform.follow(session, bob.account_id, endpoint)
        media = platform.media.create(bob.account_id, 0)
        platform.like(session, media.media_id, endpoint)
        platform.comment(session, media.media_id, "hey", endpoint)
        platform.unfollow(session, bob.account_id, endpoint)
        platform.post(session, endpoint)
        types = [r.action_type for r in platform.log.by_actor(alice.account_id)]
        assert types == [
            ActionType.FOLLOW,
            ActionType.LIKE,
            ActionType.COMMENT,
            ActionType.UNFOLLOW,
            ActionType.POST,
        ]


class _Always:
    def __init__(self, decision):
        self.decision = decision

    def decide(self, context):
        return self.decision


class TestCountermeasuresIntegration:
    def test_block_raises_and_logs(self, world):
        platform, alice, bob, session, endpoint = world
        platform.countermeasures.add_policy(_Always(CountermeasureDecision.BLOCK))
        with pytest.raises(ActionBlockedError):
            platform.follow(session, bob.account_id, endpoint)
        assert not platform.graph.is_following(alice.account_id, bob.account_id)
        records = platform.log.by_actor(alice.account_id)
        assert records[-1].status is ActionStatus.BLOCKED
        # blocked actions never notify the target
        assert platform.notifications.pending(bob.account_id) == []

    def test_delayed_removal_of_follow(self, world):
        platform, alice, bob, session, endpoint = world
        platform.countermeasures.add_policy(_Always(CountermeasureDecision.DELAY_REMOVE))
        record = platform.log.get(platform.follow(session, bob.account_id, endpoint))
        assert record.status is ActionStatus.DELIVERED
        assert platform.graph.is_following(alice.account_id, bob.account_id)
        platform.clock.advance(24)
        assert record.status is ActionStatus.REMOVED
        assert not platform.graph.is_following(alice.account_id, bob.account_id)

    def test_delayed_removal_of_like(self, world):
        platform, alice, bob, session, endpoint = world
        media = platform.media.create(bob.account_id, 0)
        platform.countermeasures.add_policy(_Always(CountermeasureDecision.DELAY_REMOVE))
        record = platform.log.get(platform.like(session, media.media_id, endpoint))
        platform.clock.advance(24)
        assert record.status is ActionStatus.REMOVED
        assert not platform.media.has_liked(media.media_id, alice.account_id)

    def test_actor_unfollow_preempts_delayed_removal(self, world):
        platform, alice, bob, session, endpoint = world
        policy = _Always(CountermeasureDecision.DELAY_REMOVE)
        platform.countermeasures.add_policy(policy)
        record = platform.log.get(platform.follow(session, bob.account_id, endpoint))
        platform.countermeasures.remove_policy(policy)
        platform.unfollow(session, bob.account_id, endpoint)
        platform.clock.advance(24)
        # nothing left to remove: the record stays DELIVERED
        assert record.status is ActionStatus.DELIVERED

    def test_target_notified_even_when_later_removed(self, world):
        """The delayed countermeasure is invisible at delivery time."""
        platform, alice, bob, session, endpoint = world
        platform.countermeasures.add_policy(_Always(CountermeasureDecision.DELAY_REMOVE))
        platform.follow(session, bob.account_id, endpoint)
        assert len(platform.notifications.pending(bob.account_id)) == 1
