"""Property tests: columnar FollowerGraph vs the set-backed oracle.

Drive the production graph and :class:`tests.oracles.graph.SetFollowerGraph`
through identical randomized op sequences and assert every query answers
identically.
"""

import pickle

import pytest

from repro.platform.errors import InvalidActionError
from repro.platform.graph import FollowerGraph
from repro.util.rng import derive_rng

from tests.oracles.graph import SetFollowerGraph

N_ACCOUNTS = 30


def _check_followed_by_all(fast, ref, rng, account: int) -> None:
    """``followed_by_all`` agrees on ``account`` for the empty set, its
    followers, a random subset of them, and each with one random account
    added (ids past the row list included)."""
    followers = set(ref.followers(account))
    picked = {src for src in sorted(followers) if rng.random() < 0.5}
    extra = int(rng.integers(1, N_ACCOUNTS + 3))
    for sources in (set(), followers, picked, picked | {extra}, followers | {extra}):
        assert fast.followed_by_all(account, sources) == ref.followed_by_all(account, sources)


def _assert_equivalent(fast: FollowerGraph, ref: SetFollowerGraph, rng) -> None:
    assert fast.edge_count == ref.edge_count
    # N_ACCOUNTS + 5 is past every row list: no account ever has that id
    _check_followed_by_all(fast, ref, rng, N_ACCOUNTS + 5)
    for account in range(1, N_ACCOUNTS + 1):
        assert fast.following(account) == ref.following(account)
        assert fast.followers(account) == ref.followers(account)
        assert list(fast.following_view(account)) == list(ref.following_view(account))
        assert list(fast.followers_view(account)) == list(ref.followers_view(account))
        assert fast.out_degree(account) == ref.out_degree(account)
        assert fast.in_degree(account) == ref.in_degree(account)
        _check_followed_by_all(fast, ref, rng, account)


def _apply_both(fast, ref, op, *args):
    """Run one mutation on both graphs; outcomes (incl. errors) must agree."""
    results = []
    for graph in (fast, ref):
        try:
            results.append(("ok", getattr(graph, op)(*args)))
        except InvalidActionError:
            results.append(("invalid", None))
    assert results[0] == results[1], f"{op}{args} diverged: {results}"


class TestGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_op_sequences(self, seed):
        rng = derive_rng(seed, "graph-ops")
        checks = derive_rng(seed, "graph-checks")
        fast, ref = FollowerGraph(), SetFollowerGraph()
        for step in range(1, 601):
            op = rng.random()
            src = int(rng.integers(1, N_ACCOUNTS + 1))
            dst = int(rng.integers(1, N_ACCOUNTS + 1))
            if op < 0.55:
                # duplicate edges and self-follows land here on purpose:
                # both graphs must reject them identically
                _apply_both(fast, ref, "follow", src, dst)
            elif op < 0.80:
                _apply_both(fast, ref, "unfollow", src, dst)
                _check_followed_by_all(fast, ref, checks, dst)
            elif op < 0.92:
                count = int(rng.integers(0, 12))
                candidates = [
                    int(c) for c in rng.integers(1, N_ACCOUNTS + 1, size=count)
                ]
                limit = int(rng.integers(0, 8))
                _apply_both(fast, ref, "bulk_follow_new", src, candidates, limit)
            else:
                _apply_both(fast, ref, "drop_account", src)
                _check_followed_by_all(fast, ref, checks, src)
            assert fast.is_following(src, dst) == ref.is_following(src, dst)
            if step % 50 == 0:
                # mid-sequence: the view caches read here must be dropped
                # by the mutations that follow
                _assert_equivalent(fast, ref, checks)
        _assert_equivalent(fast, ref, checks)

    def test_bulk_rewire_after_unfollow(self):
        checks = derive_rng(0, "graph-checks")
        fast, ref = FollowerGraph(), SetFollowerGraph()
        for graph in (fast, ref):
            graph.bulk_follow_new(1, [2, 3], 5)
            graph.bulk_follow_new(4, [2], 5)
        _assert_equivalent(fast, ref, checks)
        _apply_both(fast, ref, "unfollow", 1, 2)
        assert not fast.followed_by_all(2, {1, 4})
        _assert_equivalent(fast, ref, checks)
        _apply_both(fast, ref, "bulk_follow_new", 1, [2], 5)
        assert fast.followers(2) == ref.followers(2) == frozenset({1, 4})
        assert fast.in_degree(2) == ref.in_degree(2) == 2
        assert fast.followed_by_all(2, {1, 4})
        _assert_equivalent(fast, ref, checks)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_pickle_roundtrip_preserves_equivalence(self, seed):
        rng = derive_rng(seed, "graph-ops")
        checks = derive_rng(seed, "graph-checks")
        fast, ref = FollowerGraph(), SetFollowerGraph()
        for _ in range(200):
            src = int(rng.integers(1, N_ACCOUNTS + 1))
            dst = int(rng.integers(1, N_ACCOUNTS + 1))
            _apply_both(fast, ref, "follow", src, dst)
        # exercise the view caches before pickling: FollowerGraph.__getstate__
        # must drop them (derived state) without corrupting the rows
        for account in range(1, N_ACCOUNTS + 1):
            fast.following_view(account)
            fast.followers_view(account)
        fast2 = pickle.loads(pickle.dumps(fast))
        ref2 = pickle.loads(pickle.dumps(ref))
        _assert_equivalent(fast2, ref2, checks)
        # restored graphs must stay mutable and consistent
        _apply_both(fast2, ref2, "follow", 1, 2)
        _apply_both(fast2, ref2, "drop_account", 2)
        _assert_equivalent(fast2, ref2, checks)


class TestColumnarViewSemantics:
    def test_views_are_sorted_and_refresh_after_mutations(self):
        graph = FollowerGraph()
        for dst in (9, 3, 7):
            graph.follow(1, dst)
        assert list(graph.following_view(1)) == [3, 7, 9]
        graph.unfollow(1, 7)
        assert list(graph.following_view(1)) == [3, 9]
        graph.follow(1, 5)
        assert list(graph.following_view(1)) == [3, 5, 9]

    def test_views_kept_sorted_in_place(self):
        """Every cached following view equals the sorted reference row
        after each follow, unfollow, drop_account and bulk_follow_new,
        and follow/unfollow update it in place (same array object)."""
        for seed in range(4):
            rng = derive_rng(seed, "graph-views")
            fast, ref = FollowerGraph(), SetFollowerGraph()
            for _ in range(400):
                op = rng.random()
                src = int(rng.integers(1, N_ACCOUNTS + 1))
                dst = int(rng.integers(1, N_ACCOUNTS + 1))
                # read a random view first, so the cache holds views
                # that the mutation below must keep current
                fast.following_view(int(rng.integers(1, N_ACCOUNTS + 1)))
                held = fast._out_views.get(src)
                if op < 0.5:
                    _apply_both(fast, ref, "follow", src, dst)
                elif op < 0.8:
                    _apply_both(fast, ref, "unfollow", src, dst)
                elif op < 0.92:
                    candidates = [
                        int(c) for c in rng.integers(1, N_ACCOUNTS + 1, size=6)
                    ]
                    _apply_both(fast, ref, "bulk_follow_new", src, candidates, 4)
                    held = None
                else:
                    _apply_both(fast, ref, "drop_account", src)
                if held is not None:
                    assert fast._out_views[src] is held
                for account, view in fast._out_views.items():
                    assert list(view) == sorted(ref.following(account))
                assert list(fast.following_view(src)) == sorted(ref.following(src))

    def test_empty_view_for_unknown_account(self):
        graph = FollowerGraph()
        assert list(graph.following_view(999)) == []
        assert list(graph.followers_view(999)) == []

    def test_bulk_follow_new_respects_candidate_order_and_limit(self):
        graph = FollowerGraph()
        graph.follow(1, 4)
        added = graph.bulk_follow_new(1, [1, 4, 6, 6, 2, 8], 2)
        assert added == 2  # self-pick and existing edge skipped, dup skipped
        assert graph.following(1) == frozenset({4, 6, 2})

    def test_followed_by_all_reads_the_follower_row(self):
        graph = FollowerGraph()
        graph.follow(1, 2)
        graph.follow(3, 2)
        rows = len(graph._in)
        assert graph.followed_by_all(2, {1, 3})
        assert graph.followed_by_all(2, set())
        assert not graph.followed_by_all(2, {1, 3, 4})
        # account 1 has a following row but no follower row; 99 is past
        # the row list: only the empty set is followed by all
        assert graph.followed_by_all(1, set()) and not graph.followed_by_all(1, {3})
        assert graph.followed_by_all(99, set()) and not graph.followed_by_all(99, {1})
        assert len(graph._in) == rows  # the probes made no row
        graph.unfollow(1, 2)
        assert not graph.followed_by_all(2, {1, 3})
        assert graph.followed_by_all(2, {3})
        graph.drop_account(3)
        assert not graph.followed_by_all(2, {3})
        assert graph.followed_by_all(2, set())
