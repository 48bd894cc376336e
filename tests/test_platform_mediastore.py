"""Tests for repro.platform.mediastore."""

import pytest

from repro.platform.errors import InvalidActionError, UnknownMediaError
from repro.platform.mediastore import MediaStore


class TestMediaStore:
    def test_create_and_get(self):
        store = MediaStore()
        media = store.create(owner=1, tick=0, caption="hi", hashtags=("dogs",))
        assert store.get(media.media_id) is media
        assert store.media_of(1) == [media]

    def test_get_missing_raises(self):
        store = MediaStore()
        with pytest.raises(UnknownMediaError):
            store.get(0)

    def test_like_unlike_cycle(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        assert store.has_liked(media.media_id, 2)
        assert store.like_count(media.media_id) == 1
        store.unlike(media.media_id, 2)
        assert not store.has_liked(media.media_id, 2)

    def test_liked_by_all(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        store.like(media.media_id, 3)
        assert store.liked_by_all(media.media_id, {2, 3})
        assert store.liked_by_all(media.media_id, {2})
        assert not store.liked_by_all(media.media_id, {2, 3, 4})
        store.unlike(media.media_id, 3)
        assert not store.liked_by_all(media.media_id, {2, 3})

    def test_liked_by_all_leaves_unliked_media_unrecorded(self):
        store = MediaStore()
        media = store.create(1, 0)
        assert not store.liked_by_all(media.media_id, {2})
        assert store.liked_by_all(media.media_id, set())
        assert media.media_id not in store._likers  # the probe inserted nothing

    def test_double_like_rejected(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        with pytest.raises(InvalidActionError):
            store.like(media.media_id, 2)

    def test_unlike_without_like_rejected(self):
        store = MediaStore()
        media = store.create(1, 0)
        with pytest.raises(InvalidActionError):
            store.unlike(media.media_id, 2)

    def test_comments_accumulate(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.comment(media.media_id, 2, "nice")
        store.comment(media.media_id, 3, "wow")
        # each comment counts once toward the owner's engagement rate
        assert store.engagement_rate(1, follower_count=4) == pytest.approx(0.5)

    def test_remove_account_media_tombstones(self):
        store = MediaStore()
        media = store.create(1, 0)
        assert store.remove_account_media(1) == 1
        assert store.media_of(1) == []
        with pytest.raises(UnknownMediaError):
            store.get(media.media_id)

    def test_drop_likes_by(self):
        store = MediaStore()
        a = store.create(1, 0)
        b = store.create(2, 0)
        store.like(a.media_id, 9)
        store.like(b.media_id, 9)
        assert store.drop_likes_by(9) == 2
        assert store.like_count(a.media_id) == 0

    def test_engagement_rate(self):
        store = MediaStore()
        media = store.create(1, 0)
        store.like(media.media_id, 2)
        store.like(media.media_id, 3)
        store.comment(media.media_id, 4, "!")
        assert store.engagement_rate(1, follower_count=10) == pytest.approx(0.3)

    def test_engagement_rate_no_followers_is_none(self):
        store = MediaStore()
        store.create(1, 0)
        assert store.engagement_rate(1, follower_count=0) is None
