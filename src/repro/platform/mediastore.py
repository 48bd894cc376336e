"""Media (photo/post) storage with like and comment bookkeeping.

Likes are sets of likers per media. Beside them the store keeps, for
each liker, a count of its likes on each owner's media; ``like``,
``unlike`` and ``drop_likes_by`` update it. Tombstoning an owner's media
leaves the count alone, so it may include likes on removed media and
only ever over-counts. That is the safe side: a liker whose count on an
owner is zero has liked none of the owner's live media, and
``unliked_of`` then returns the owner's cached ``media_of`` list without
scanning it. Comments are a count per media; their text lives in the
action log.

Counting reads never insert: ``like_count``, ``has_liked``, ``likes``,
``liked_by_all`` and ``engagement_rate`` probe through ``.get``, so
asking about a media nobody liked or commented on leaves the store (and
the pickled world) as it was. Only ``like`` and the pair memo behind
``unliked_of``, which must hold the very set a later ``like`` mutates,
index the likers defaultdict.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.platform.errors import InvalidActionError, UnknownMediaError
from repro.platform.models import AccountId, Media, MediaId

_NO_LIKERS: frozenset[AccountId] = frozenset()


class MediaStore:
    """Owns all media objects plus their like/comment state."""

    def __init__(self) -> None:
        self._media: dict[MediaId, Media] = {}
        self._by_owner: dict[AccountId, list[MediaId]] = defaultdict(list)
        self._likers: dict[MediaId, set[AccountId]] = defaultdict(set)
        #: liker -> owner -> likes by the liker on the owner's media
        #: (removed media included); an owner with no likes has no entry
        self._owner_likes: dict[AccountId, dict[AccountId, int]] = {}
        self._comment_counts: dict[MediaId, int] = {}
        self._by_hashtag: dict[str, set[MediaId]] = defaultdict(set)
        self._next_id = 0
        #: memo of ``media_of`` results, invalidated on the two mutations
        #: that can change them (``create`` appends a live media;
        #: ``remove_account_media`` tombstones them)
        self._of_cache: dict[AccountId, list[Media]] = {}
        #: memo of ``accounts_posting`` results per lowered
        #: tag, invalidated by the same two mutations (``create`` for the
        #: new media's tags, ``remove_account_media`` for the tags of the
        #: owner's media). AAS hashtag targeting re-derives its audience
        #: every few simulated hours, and each derivation walks every
        #: media under every targeted tag — the dominant media-store cost
        #: at scale.
        self._posting_cache: dict[str, set[AccountId]] = {}
        #: memo pairing each of an owner's live media with
        #: its (live, mutated-in-place) likers set, validated by identity
        #: of the cached ``media_of`` list. Likes and unlikes mutate the
        #: referenced sets directly, so entries stay correct until the
        #: media list itself is rebuilt.
        self._pairs_cache: dict[
            AccountId, tuple[object, list[tuple[Media, set[AccountId]]]]
        ] = {}

    def create(self, owner: AccountId, tick: int, caption: str = "", hashtags: tuple[str, ...] = ()) -> Media:
        media = Media(
            media_id=self._next_id,
            owner=owner,
            created_at=tick,
            caption=caption,
            hashtags=hashtags,
        )
        self._next_id += 1
        self._media[media.media_id] = media
        self._by_owner[owner].append(media.media_id)
        self._of_cache.pop(owner, None)
        posting = self._posting_cache
        for tag in hashtags:
            lowered = tag.lower()
            self._by_hashtag[lowered].add(media.media_id)
            posting.pop(lowered, None)
        return media

    def get(self, media_id: MediaId) -> Media:
        media = self._media.get(media_id)
        if media is None or media.is_removed:
            raise UnknownMediaError(f"media {media_id} not found")
        return media

    def media_of(self, owner: AccountId) -> list[Media]:
        """Live media belonging to ``owner``, oldest first.

        Repeated calls return the **same** list object until the owner's
        media change — callers must treat the result as read-only, which
        every call site already does (they filter or index into it).
        """
        cache = self._of_cache
        media = cache.get(owner)
        if media is None:
            media = cache[owner] = [
                self._media[mid]
                for mid in self._by_owner.get(owner, ())
                if not self._media[mid].is_removed
            ]
        return media

    def like(self, media_id: MediaId, liker: AccountId) -> Media:
        """Record a like; returns the liked media so the caller can read
        the owner. Unknown or removed media raise
        :class:`UnknownMediaError`, and double-likes are invalid
        (Instagram semantics)."""
        media = self.get(media_id)
        likers = self._likers[media_id]
        if liker in likers:
            raise InvalidActionError(f"{liker} already likes media {media_id}")
        likers.add(liker)
        owner_likes = self._owner_likes.get(liker)
        if owner_likes is None:
            owner_likes = self._owner_likes[liker] = {}
        owner_likes[media.owner] = owner_likes.get(media.owner, 0) + 1
        return media

    def unliked_of(self, owner: AccountId, liker: AccountId) -> list[Media]:
        """Live media of ``owner`` that ``liker`` has not liked.

        Equivalent to filtering :meth:`media_of` through
        :meth:`has_liked` — the media pick of the organic loops and the
        reciprocity AASs. When ``liker`` has no like on ``owner``'s media
        this is :meth:`media_of`'s cached list itself, read-only like
        ``media_of``; otherwise a fresh list filtered with one set probe
        per media, the per-media likers-dict lookup memoized in
        ``_pairs_cache``.
        """
        media = self.media_of(owner)
        owner_likes = self._owner_likes.get(liker)
        if owner_likes is None or owner not in owner_likes:
            return media
        pairs_cache = self._pairs_cache
        entry = pairs_cache.get(owner)
        if entry is not None and entry[0] is media:
            pairs = entry[1]
        else:
            likers = self._likers
            pairs = [(m, likers[m.media_id]) for m in media]
            pairs_cache[owner] = (media, pairs)
        return [m for m, liked_by in pairs if liker not in liked_by]

    def unlike(self, media_id: MediaId, liker: AccountId) -> None:
        """Withdraw a like (used by delayed removal of like actions)."""
        owner = self.get(media_id).owner
        likers = self._likers.get(media_id, _NO_LIKERS)
        if liker not in likers:
            raise InvalidActionError(f"{liker} does not like media {media_id}")
        self._likers[media_id].remove(liker)
        owner_likes = self._owner_likes[liker]
        if owner_likes[owner] == 1:
            del owner_likes[owner]
        else:
            owner_likes[owner] -= 1

    def likes(self, media_id: MediaId) -> frozenset[AccountId]:
        self.get(media_id)
        return frozenset(self._likers.get(media_id, _NO_LIKERS))

    def like_count(self, media_id: MediaId) -> int:
        return len(self._likers.get(media_id, _NO_LIKERS))

    def has_liked(self, media_id: MediaId, liker: AccountId) -> bool:
        return liker in self._likers.get(media_id, _NO_LIKERS)

    def liked_by_all(self, media_id: MediaId, accounts: set[AccountId]) -> bool:
        """Whether every account in ``accounts`` likes ``media_id``.

        One C-level superset test. Reads with ``.get()``: indexing the
        likers defaultdict would insert an entry for a media nobody has
        liked, and the probe must leave the store exactly as it found it.
        """
        return self._likers.get(media_id, _NO_LIKERS).issuperset(accounts)

    def comment(self, media_id: MediaId) -> None:
        """Count one comment on ``media_id``; its author and text live
        in the action log."""
        self.get(media_id)
        counts = self._comment_counts
        counts[media_id] = counts.get(media_id, 0) + 1

    def media_with_hashtag(self, tag: str) -> list[Media]:
        """Live media tagged ``tag`` (hashtag search, case-insensitive)."""
        return [
            self._media[mid]
            for mid in self._by_hashtag.get(tag.lower(), ())
            if not self._media[mid].is_removed
        ]

    def accounts_posting(self, tag: str) -> set[AccountId]:
        """Accounts with live media under ``tag`` — how AAS hashtag
        targeting discovers accounts (paper Section 3.3.1).

        Cached per tag; like ``media_of``, repeated calls return the
        **same** set object until a mutation touches the tag, so callers
        must treat the result as read-only (the one call site unions it
        into its own set).
        """
        cache = self._posting_cache
        lowered = tag.lower()
        owners = cache.get(lowered)
        if owners is None:
            owners = cache[lowered] = {
                media.owner for media in self.media_with_hashtag(lowered)
            }
        return owners

    def remove_account_media(self, owner: AccountId) -> int:
        """Tombstone all media of a deleted account; returns count removed."""
        removed = 0
        posting = self._posting_cache
        for media_id in self._by_owner.get(owner, ()):
            media = self._media[media_id]
            if not media.is_removed:
                media.is_removed = True
                removed += 1
            for tag in media.hashtags:
                posting.pop(tag.lower(), None)
        self._of_cache.pop(owner, None)
        return removed

    def drop_likes_by(self, account: AccountId) -> int:
        """Remove every like ``account`` has placed (account deletion)."""
        self._owner_likes.pop(account, None)
        removed = 0
        for media_id, likers in self._likers.items():
            if account in likers:
                likers.remove(account)
                removed += 1
        return removed

    def engagement_rate(self, owner: AccountId, follower_count: int) -> Optional[float]:
        """The "engagement rate" metric AASs promote (Section 2).

        ER = (likes + comments across the account's media) / followers.
        Returns None for accounts with no followers (undefined metric).
        """
        if follower_count <= 0:
            return None
        comment_counts = self._comment_counts
        interactions = sum(
            self.like_count(m.media_id) + comment_counts.get(m.media_id, 0)
            for m in self.media_of(owner)
        )
        return interactions / follower_count
