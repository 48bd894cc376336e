"""Tests for repro.platform.mediastore."""

import pytest

from repro.platform.errors import InvalidActionError, UnknownMediaError
from repro.platform.mediastore import MediaStore
from repro.util.rng import derive_rng


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
        store.comment(media.media_id)
        store.comment(media.media_id)
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
        store.comment(media.media_id)
        assert store.engagement_rate(1, follower_count=10) == pytest.approx(0.3)

    def test_engagement_rate_no_followers_is_none(self):
        store = MediaStore()
        store.create(1, 0)
        assert store.engagement_rate(1, follower_count=0) is None

    def test_reads_insert_nothing(self):
        store = MediaStore()
        media = store.create(1, 0)
        assert store.engagement_rate(1, follower_count=4) == 0.0
        assert store.like_count(media.media_id) == 0
        assert (len(store._likers), len(store._comment_counts)) == (0, 0)


class TestUnlikedOf:
    N_OWNERS = 4
    N_LIKERS = 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_filter(self, seed):
        """``unliked_of`` equals the brute filter of ``media_of`` over a
        reference like set, and is ``media_of``'s own list exactly when
        the liker has no like on any of the owner's media, removed media
        included."""
        rng = derive_rng(seed, "unliked-of")
        store = MediaStore()
        owner_of: dict[int, int] = {}
        liked: set[tuple[int, int]] = set()
        for owner in range(1, self.N_OWNERS + 1):
            owner_of[store.create(owner, 0).media_id] = owner
        for step in range(600):
            op = rng.random()
            liker = int(rng.integers(1, self.N_LIKERS + 1))
            owner = int(rng.integers(1, self.N_OWNERS + 1))
            live = store.media_of(owner)
            if op < 0.45 and live:
                media_id = live[int(rng.integers(0, len(live)))].media_id
                if (liker, media_id) in liked:
                    with pytest.raises(InvalidActionError):
                        store.like(media_id, liker)
                else:
                    store.like(media_id, liker)
                    liked.add((liker, media_id))
            elif op < 0.7:
                live_ids = {m.media_id for m in live}
                mine = sorted(m for (who, m) in liked if who == liker and m in live_ids)
                if mine:
                    media_id = mine[int(rng.integers(0, len(mine)))]
                    store.unlike(media_id, liker)
                    liked.discard((liker, media_id))
            elif op < 0.8:
                store.drop_likes_by(liker)
                liked = {(who, m) for (who, m) in liked if who != liker}
            elif op < 0.88:
                store.remove_account_media(owner)
            else:
                owner_of[store.create(owner, step).media_id] = owner
            for check_owner in range(1, self.N_OWNERS + 1):
                for check_liker in range(1, self.N_LIKERS + 1):
                    media = store.media_of(check_owner)
                    got = store.unliked_of(check_owner, check_liker)
                    assert got == [m for m in media if (check_liker, m.media_id) not in liked]
                    no_like = not any(
                        who == check_liker and owner_of[m] == check_owner
                        for (who, m) in liked
                    )
                    assert (got is media) == no_like
