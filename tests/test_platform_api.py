"""Tests for the public/private API surfaces."""

import pytest

from repro.platform import InstagramPlatform, PrivateMobileAPI, PublicGraphAPI
from repro.platform.errors import RateLimitExceededError
from repro.platform.models import ApiSurface


@pytest.fixture
def world(endpoint):
    platform = InstagramPlatform()
    alice = platform.create_account("alice", "pw")
    bob = platform.create_account("bob", "pw")
    session = platform.login("alice", "pw", endpoint)
    return platform, alice, bob, session, endpoint


class TestPublicGraphAPI:
    def test_actions_tagged_public(self, world):
        platform, alice, bob, session, endpoint = world
        api = PublicGraphAPI(platform)
        record = platform.log.get(api.follow(session, bob.account_id, endpoint))
        assert record.api is ApiSurface.PUBLIC_OAUTH

    def test_rate_limit_enforced(self, world):
        platform, alice, bob, session, endpoint = world
        api = PublicGraphAPI(platform, limit_per_hour=2)
        media = platform.media.create(bob.account_id, 0)
        api.like(session, media.media_id, endpoint)
        api.follow(session, bob.account_id, endpoint)
        with pytest.raises(RateLimitExceededError):
            api.unfollow(session, bob.account_id, endpoint)

    def test_limit_resets_after_window(self, world):
        platform, alice, bob, session, endpoint = world
        api = PublicGraphAPI(platform, limit_per_hour=1)
        api.follow(session, bob.account_id, endpoint)
        platform.clock.advance(2)
        api.unfollow(session, bob.account_id, endpoint)  # new hour, allowed

    def test_rate_limited_attempt_not_logged(self, world):
        platform, alice, bob, session, endpoint = world
        api = PublicGraphAPI(platform, limit_per_hour=1)
        api.follow(session, bob.account_id, endpoint)
        before = len(platform.log)
        with pytest.raises(RateLimitExceededError):
            api.unfollow(session, bob.account_id, endpoint)
        assert len(platform.log) == before


class TestPrivateMobileAPI:
    def test_actions_tagged_private(self, world):
        platform, alice, bob, session, endpoint = world
        api = PrivateMobileAPI(platform)
        record = platform.log.get(api.follow(session, bob.account_id, endpoint))
        assert record.api is ApiSurface.PRIVATE_MOBILE

    def test_far_looser_than_public(self, world):
        platform, alice, bob, session, endpoint = world
        api = PrivateMobileAPI(platform)
        # 100 actions in one hour: fine on the private surface
        for i in range(50):
            api.follow(session, bob.account_id, endpoint)
            api.unfollow(session, bob.account_id, endpoint)

    def test_post_via_api(self, world):
        platform, alice, bob, session, endpoint = world
        api = PrivateMobileAPI(platform)
        action_id, media = api.post(session, endpoint, caption="x")
        assert media.owner == alice.account_id
        assert platform.log.get(action_id).target_media == media.media_id
