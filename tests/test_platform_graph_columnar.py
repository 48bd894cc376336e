"""Property tests: columnar FollowerGraph vs the set-backed oracle.

Drive the production graph and :class:`tests.oracles.graph.SetFollowerGraph`
through identical randomized op sequences and assert every query answers
identically.
"""

import pickle

import numpy as np
import pytest

from repro.platform.errors import InvalidActionError
from repro.platform.graph import FollowerGraph
from repro.util.rng import derive_rng

from tests.oracles.graph import SetFollowerGraph

N_ACCOUNTS = 30


def _assert_equivalent(fast: FollowerGraph, ref: SetFollowerGraph) -> None:
    assert fast.edge_count == ref.edge_count
    for account in range(1, N_ACCOUNTS + 1):
        assert fast.following(account) == ref.following(account)
        assert fast.followers(account) == ref.followers(account)
        assert list(fast.following_view(account)) == list(ref.following_view(account))
        assert list(fast.followers_view(account)) == list(ref.followers_view(account))
        assert fast.out_degree(account) == ref.out_degree(account)
        assert fast.in_degree(account) == ref.in_degree(account)


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
        fast, ref = FollowerGraph(), SetFollowerGraph()
        for _ in range(600):
            op = rng.random()
            src = int(rng.integers(1, N_ACCOUNTS + 1))
            dst = int(rng.integers(1, N_ACCOUNTS + 1))
            if op < 0.55:
                # duplicate edges and self-follows land here on purpose:
                # both graphs must reject them identically
                _apply_both(fast, ref, "follow", src, dst)
            elif op < 0.80:
                _apply_both(fast, ref, "unfollow", src, dst)
            elif op < 0.92:
                count = int(rng.integers(0, 12))
                candidates = [
                    int(c) for c in rng.integers(1, N_ACCOUNTS + 1, size=count)
                ]
                limit = int(rng.integers(0, 8))
                _apply_both(fast, ref, "bulk_follow_new", src, candidates, limit)
            else:
                _apply_both(fast, ref, "drop_account", src)
            assert fast.is_following(src, dst) == ref.is_following(src, dst)
        _assert_equivalent(fast, ref)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_pickle_roundtrip_preserves_equivalence(self, seed):
        rng = derive_rng(seed, "graph-ops")
        fast, ref = FollowerGraph(), SetFollowerGraph()
        for _ in range(200):
            src = int(rng.integers(1, N_ACCOUNTS + 1))
            dst = int(rng.integers(1, N_ACCOUNTS + 1))
            _apply_both(fast, ref, "follow", src, dst)
        # exercise the view cache before pickling: _Row.__getstate__ must
        # drop it (derived state) without corrupting the members set
        for account in range(1, N_ACCOUNTS + 1):
            fast.following_view(account)
        fast2 = pickle.loads(pickle.dumps(fast))
        ref2 = pickle.loads(pickle.dumps(ref))
        _assert_equivalent(fast2, ref2)
        # restored graphs must stay mutable and consistent
        _apply_both(fast2, ref2, "follow", 1, 2)
        _apply_both(fast2, ref2, "drop_account", 2)
        _assert_equivalent(fast2, ref2)


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

    def test_view_is_cached_until_mutation(self):
        graph = FollowerGraph()
        graph.follow(1, 2)
        first = graph.following_view(1)
        assert graph.following_view(1) is first  # non-copying
        graph.follow(1, 3)
        assert graph.following_view(1) is not first

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
