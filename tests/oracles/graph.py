"""The brute-force reference follower graph.

:class:`SetFollowerGraph` keeps both sides of every edge in a
``defaultdict(set)``. It shares :class:`repro.platform.graph.FollowerGraph`'s
API and is the oracle the columnar graph is property-tested against.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.obs import NULL_OBS, Observability
from repro.platform.errors import InvalidActionError
from repro.platform.models import AccountId


class SetFollowerGraph:
    """The brute-force reference graph (the naive path's oracle).

    Counts the same ``platform.graph.edge_ops`` work units as the
    columnar graph — its bulk wiring is literally ``follow`` per edge,
    so its bulk op count lands under ``op=follow`` (honest per-edge
    work), not ``op=bulk``.
    """

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_follows = _obs.counter("platform.graph.edge_ops", op="follow")
        self._obs_unfollows = _obs.counter("platform.graph.edge_ops", op="unfollow")
        self._following: dict[AccountId, set[AccountId]] = defaultdict(set)
        self._followers: dict[AccountId, set[AccountId]] = defaultdict(set)
        self._edge_count = 0

    def follow(self, src: AccountId, dst: AccountId) -> None:
        """Add edge src -> dst. Self-follows and duplicates are invalid."""
        if src == dst:
            raise InvalidActionError("accounts cannot follow themselves")
        if dst in self._following[src]:
            raise InvalidActionError(f"{src} already follows {dst}")
        self._following[src].add(dst)
        self._followers[dst].add(src)
        self._edge_count += 1
        self._obs_follows.inc()

    def unfollow(self, src: AccountId, dst: AccountId) -> None:
        """Remove edge src -> dst; removing a missing edge is invalid."""
        if dst not in self._following[src]:
            raise InvalidActionError(f"{src} does not follow {dst}")
        self._following[src].remove(dst)
        self._followers[dst].remove(src)
        self._edge_count -= 1
        self._obs_unfollows.inc()

    def bulk_follow_new(
        self, src: AccountId, candidates: Iterable[AccountId], limit: int
    ) -> int:
        """Reference bulk wiring: literally ``follow`` per new candidate."""
        added = 0
        for dst in candidates:
            if added >= limit:
                break
            if dst == src or self.is_following(src, dst):
                continue
            self.follow(src, dst)
            added += 1
        return added

    def is_following(self, src: AccountId, dst: AccountId) -> bool:
        return dst in self._following[src]

    def following(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts that ``account`` follows."""
        return frozenset(self._following[account])

    def followers(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts following ``account``."""
        return frozenset(self._followers[account])

    def following_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted snapshot of who ``account`` follows (copying: oracle)."""
        return tuple(sorted(self._following[account]))

    def followers_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted snapshot of ``account``'s followers (copying: oracle)."""
        return tuple(sorted(self._followers[account]))

    def out_degree(self, account: AccountId) -> int:
        return len(self._following[account])

    def in_degree(self, account: AccountId) -> int:
        return len(self._followers[account])

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def drop_account(self, account: AccountId) -> int:
        """Remove every edge incident to ``account``; returns edges dropped.

        Used by account deletion: "when deleting a honeypot account, all
        actions to or from the account are eventually removed".
        """
        removed = 0
        for dst in list(self._following[account]):
            self.unfollow(account, dst)
            removed += 1
        for src in list(self._followers[account]):
            self.unfollow(src, account)
            removed += 1
        return removed
