"""Property tests: ``ActionLog.append_batch`` vs its one-row batches
and the list oracle.

``append_batch(rows)`` must leave what ``for row in rows:
append_batch([row])`` leaves — same ids, same field values, same index
answers, same rows offered to observers. These tests replay one
randomized op sequence (batches of varying size, ``log_action``
appends, and mark_removed calls interleaved) into three logs:

* a columnar log fed whole batches (the system under test),
* a columnar log fed one-row batches (the row-by-row leg),
* the brute-force :class:`tests.oracles.actionlog.ListActionLog` fed
  row-by-row (the storage oracle),

and assert every query agrees, also across pickle round-trips taken
mid-sequence.

One level up, the platform's ``action_batch`` scope must be invisible:
the same action sequence issued in scopes on the production platform
and on the scalar oracle (:class:`tests.oracles.platform.ScalarPlatform`,
which writes each row at once) leaves the same log, graph, media and
notifications, with or without a countermeasure policy installed (the
policy suite is ``tests/test_platform_policy_batch_equivalence.py``).
"""

import pickle

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import ActionBlockedError, PlatformError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util.rng import derive_rng

from tests.oracles.actionlog import ListActionLog
from tests.oracles.platform import ScalarPlatform
from tests.test_platform_columnar_log import (
    _ENDPOINTS,
    _assert_queries_equivalent,
    _range_rows,
    _rows,
)


def _random_row(rng, tick):
    """One ``log_action`` argument tuple, drawn like the scalar suite."""
    action_type = list(ActionType)[int(rng.integers(0, len(ActionType)))]
    status = ActionStatus.BLOCKED if rng.random() < 0.15 else ActionStatus.DELIVERED
    target = int(rng.integers(1, 9)) if rng.random() < 0.8 else None
    media = int(rng.integers(100, 110)) if rng.random() < 0.4 else None
    comment = "nice pic" if action_type is ActionType.COMMENT else None
    return (
        action_type,
        int(rng.integers(1, 9)),
        tick,
        _ENDPOINTS[int(rng.integers(0, len(_ENDPOINTS)))],
        ApiSurface.PRIVATE_MOBILE,
        status,
        target,
        media,
        comment,
    )


def _script(seed: int, steps: int):
    """A pure op list: ("batch", rows) | ("scalar", row) | ("remove", id, tick).

    Generated once so every log replays the *same* data — removals pick
    among delivered ids by simulating the shared id counter.
    """
    rng = derive_rng(seed, "actionlog-batch")
    ops = []
    tick = 0
    next_id = 0
    delivered = []
    for _ in range(steps):
        kind = rng.random()
        size = int(rng.integers(1, 7)) if kind < 0.6 else 1
        rows = []
        for _ in range(size):
            tick += int(rng.integers(0, 3))
            row = _random_row(rng, tick)
            if row[5] is ActionStatus.DELIVERED:
                delivered.append(next_id)
            next_id += 1
            rows.append(row)
        if kind < 0.6:
            ops.append(("batch", rows))
        else:
            ops.append(("scalar", rows[0]))
        if delivered and rng.random() < 0.1:
            victim = delivered.pop(int(rng.integers(0, len(delivered))))
            ops.append(("remove", victim, tick + 24))
    return ops


def _apply(log, ops, batched: bool) -> None:
    for op in ops:
        if op[0] == "batch":
            if batched:
                first = log.append_batch(op[1])
                assert first == len(log) - len(op[1])
            else:
                for row in op[1]:
                    log.append_batch([row])
        elif op[0] == "scalar":
            log.log_action(*op[1])
        else:
            log.get(op[1]).mark_removed(op[2])


def _triple(seed: int, steps: int = 120):
    ops = _script(seed, steps)
    batched = ActionLog()
    one_row = ActionLog()
    ref = ListActionLog()
    _apply(batched, ops, batched=True)
    _apply(one_row, ops, batched=False)
    _apply(ref, ops, batched=False)
    return ops, batched, one_row, ref


class TestAppendBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotonic_interleavings(self, seed):
        _, batched, one_row, ref = _triple(seed)
        _assert_queries_equivalent(batched, one_row)
        _assert_queries_equivalent(batched, ref)

    def test_empty_batch_is_a_noop(self):
        log = ActionLog()
        assert log.append_batch([]) == 0
        log.log_action(
            ActionType.LIKE, 1, 0, _ENDPOINTS[0],
            ApiSurface.PRIVATE_MOBILE, ActionStatus.DELIVERED,
        )
        assert log.append_batch([]) == 1
        assert len(log) == 1

    @pytest.mark.parametrize("batched_first_half", [True, False])
    def test_pickle_roundtrip_mid_sequence(self, batched_first_half):
        """A log restored mid-sequence, whether its rows so far came in
        batches or one by one, keeps accepting batches with correct ids
        and keeps rejecting rows below its tail."""
        ops = _script(3, 120)
        half = len(ops) // 2
        batched = ActionLog()
        ref = ListActionLog()
        _apply(batched, ops[:half], batched=batched_first_half)
        _apply(ref, ops[:half], batched=False)
        batched = pickle.loads(pickle.dumps(batched))
        ref = pickle.loads(pickle.dumps(ref))
        tail = batched.get(len(batched) - 1).tick
        late = _random_row(derive_rng(3, "late-row"), tail - 1)
        for log in (batched, ref):
            with pytest.raises(ValueError, match="out-of-order"):
                log.append_batch([late])
        _apply(batched, ops[half:], batched=True)
        _apply(ref, ops[half:], batched=False)
        _assert_queries_equivalent(batched, ref)

    def test_observer_streams_identical(self):
        """Each observer call covers one batch's row range. The batched
        log and the list oracle fed the same batches offer the same
        ranges; the one-row-batch log offers one range per row; all
        three offer the same rows, in append order."""
        ops = _script(11, 80)
        logs = {"batched": ActionLog(), "one_row": ActionLog(), "oracle": ListActionLog()}
        ranges = {name: [] for name in logs}
        seen = {name: [] for name in logs}
        for name, log in logs.items():

            def observe(store, start, end, name=name):
                ranges[name].append((start, end))
                seen[name].extend(_range_rows(store, start, end))

            log.add_observer(observe)
        _apply(logs["batched"], ops, batched=True)
        _apply(logs["one_row"], ops, batched=False)
        _apply(logs["oracle"], ops, batched=True)
        expected = []
        for op in ops:
            if op[0] != "remove":
                start = expected[-1][1] if expected else 0
                expected.append((start, start + (len(op[1]) if op[0] == "batch" else 1)))
        # streams reflect observation-time state (later mark_removed calls
        # are invisible to them), so compare stream-to-stream, not to the
        # final log contents
        assert len(seen["batched"]) == len(logs["batched"])
        assert seen["batched"] == seen["one_row"] == seen["oracle"]
        assert ranges["batched"] == ranges["oracle"] == expected
        assert ranges["one_row"] == [(i, i + 1) for i in range(len(logs["one_row"]))]


# ----------------------------------------------------------------------
# The platform's action_batch scope vs the scalar oracle
# ----------------------------------------------------------------------

_HOME = ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android"))
_N_USERS = 8


class _FixedPolicy:
    def __init__(self, decision):
        self.decision = decision

    def decide(self, context):
        return self.decision


def _world(policy=None, platform_type=InstagramPlatform):
    """A bare platform with a few users, each owning two posts."""
    platform = platform_type()
    if policy is not None:
        platform.countermeasures.add_policy(policy)
    sessions = {}
    media = {}
    for n in range(1, _N_USERS + 1):
        account = platform.create_account(f"user{n}", "pw")
        sessions[account.account_id] = platform.login(f"user{n}", "pw", _HOME)
        media[account.account_id] = [
            platform.post(sessions[account.account_id], _HOME, caption=str(k))[1].media_id
            for k in range(2)
        ]
    return platform, sessions, media


def _action_script(seed: int, steps: int = 160):
    """Randomized (kind, actor, target) triples; invalid repeats on purpose."""
    rng = derive_rng(seed, "action-batch-scope")
    kinds = ("like", "like", "follow", "follow", "unfollow", "comment", "post")
    return [
        (
            kinds[int(rng.integers(0, len(kinds)))],
            int(rng.integers(1, _N_USERS + 1)),
            int(rng.integers(1, _N_USERS + 1)),
            int(rng.integers(0, 2)),
        )
        for _ in range(steps)
    ]


def _issue(platform, sessions, media, step) -> str:
    """Run one scripted action; returns its outcome class."""
    kind, actor, target, pick = step
    session = sessions[actor]
    try:
        if kind == "like":
            platform.like(session, media[target][pick], _HOME)
        elif kind == "follow":
            platform.follow(session, target, _HOME)
        elif kind == "unfollow":
            platform.unfollow(session, target, _HOME)
        elif kind == "comment":
            platform.comment(session, media[target][pick], "nice", _HOME)
        else:
            platform.post(session, _HOME)
    except PlatformError as exc:
        return type(exc).__name__
    return "ok"


def _state(platform):
    users = range(1, _N_USERS + 1)
    log_rows = _rows(iter(platform.log))
    edges = sorted((src, dst) for src in users for dst in platform.graph.following(src))
    likes = [
        (m.media_id, sorted(platform.media.likes(m.media_id)))
        for a in users
        for m in platform.media.media_of(a)
    ]
    inbox = {a: platform.notifications.pending(a) for a in users}
    return log_rows, edges, likes, inbox


def _run_scoped(policy, ops, scope_len: int):
    """Issue ``ops`` in consecutive scopes of ``scope_len`` actions."""
    platform, sessions, media = _world(policy)
    outcomes = []
    for i in range(0, len(ops), scope_len):
        with platform.action_batch():
            for step in ops[i:i + scope_len]:
                outcomes.append(_issue(platform, sessions, media, step))
    return platform, outcomes


def _run_scalar(policy, ops):
    platform, sessions, media = _world(policy, ScalarPlatform)
    return platform, [_issue(platform, sessions, media, step) for step in ops]


class TestActionBatchScope:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scope_matches_scalar_path(self, seed):
        ops = _action_script(seed)
        scoped, scoped_outcomes = _run_scoped(None, ops, scope_len=12)
        scalar, scalar_outcomes = _run_scalar(None, ops)
        assert scoped_outcomes == scalar_outcomes
        assert "InvalidActionError" in scalar_outcomes  # rejections exercised
        assert _state(scoped) == _state(scalar)

    def test_scope_defers_rows_until_exit(self):
        platform, sessions, media = _world()
        before = len(platform.log)
        with platform.action_batch():
            assert platform.like(sessions[1], media[2][0], _HOME) == before
            assert len(platform.log) == before
        assert len(platform.log) == before + 1

    def test_installed_policy_scope_defers_rows(self):
        policy = _FixedPolicy(CountermeasureDecision.DELAY_REMOVE)
        platform, sessions, media = _world(policy)
        before = len(platform.log)
        with platform.action_batch():
            assert platform.like(sessions[1], media[2][0], _HOME) == before
            assert platform.follow(sessions[1], 2, _HOME) == before + 1
            assert len(platform.log) == before
        assert len(platform.log) == before + 2
        # a BLOCKED row is deferred too, and gets the scalar oracle's id
        blocked_ids = []
        for platform_type in (InstagramPlatform, ScalarPlatform):
            platform, sessions, media = _world(None, platform_type)
            platform.countermeasures.add_policy(_FixedPolicy(CountermeasureDecision.BLOCK))
            before = len(platform.log)
            with platform.action_batch():
                with pytest.raises(ActionBlockedError):
                    platform.follow(sessions[1], 2, _HOME)
                deferred = platform_type is InstagramPlatform
                assert len(platform.log) == (before if deferred else before + 1)
            blocked = platform.log.get(before)
            assert blocked.action_type is ActionType.FOLLOW
            assert blocked.status is ActionStatus.BLOCKED
            blocked_ids.append(blocked.action_id)
        assert blocked_ids == [before, before]
        ops = _action_script(5)
        scoped, scoped_outcomes = _run_scoped(policy, ops, scope_len=12)
        scalar, scalar_outcomes = _run_scalar(policy, ops)
        assert scoped_outcomes == scalar_outcomes
        assert _state(scoped) == _state(scalar)


#: follow, like and unfollow interleaved, with a comment deferred
#: mid-scope and a second unfollow of the same edge (invalid)
_UNFOLLOW_OPS = [
    ("follow", 1, 2, 0),
    ("follow", 1, 3, 0),
    ("like", 1, 3, 0),
    ("unfollow", 1, 2, 0),
    ("follow", 4, 1, 0),
    ("comment", 4, 1, 1),
    ("unfollow", 1, 3, 0),
    ("unfollow", 1, 3, 0),
    ("unfollow", 4, 1, 0),
    ("follow", 1, 2, 0),
]


class TestBatchedUnfollow:
    def test_scope_matches_scalar_path(self):
        scoped, scoped_outcomes = _run_scoped(None, _UNFOLLOW_OPS, scope_len=len(_UNFOLLOW_OPS))
        scalar, scalar_outcomes = _run_scalar(None, _UNFOLLOW_OPS)
        assert scoped_outcomes == scalar_outcomes
        assert scoped_outcomes.count("InvalidActionError") == 1
        # rows (with their ids), edges, likes and inboxes all match
        assert _state(scoped) == _state(scalar)
        kinds = [r.action_type for r in scoped.log]
        assert kinds.count(ActionType.UNFOLLOW) == 3

    def test_unfollow_defers_its_row_but_mutates_the_graph(self):
        platform, sessions, media = _world()
        platform.follow(sessions[1], 2, _HOME)
        before = len(platform.log)
        with platform.action_batch():
            assert platform.unfollow(sessions[1], 2, _HOME) == before
            assert not platform.graph.is_following(1, 2)
            assert len(platform.log) == before
            platform.follow(sessions[1], 2, _HOME)
        assert len(platform.log) == before + 2
        unfollow, follow = list(platform.log)[before:]
        assert (unfollow.action_id, unfollow.action_type) == (before, ActionType.UNFOLLOW)
        assert (unfollow.actor, unfollow.target_account) == (1, 2)
        assert unfollow.status is ActionStatus.DELIVERED
        assert (follow.action_id, follow.action_type) == (before + 1, ActionType.FOLLOW)

    def test_invalid_unfollow_raises_and_appends_nothing(self):
        platform, sessions, media = _world()
        platform.follow(sessions[1], 2, _HOME)
        before = len(platform.log)
        with platform.action_batch():
            platform.unfollow(sessions[1], 2, _HOME)
            with pytest.raises(PlatformError, match="does not follow"):
                platform.unfollow(sessions[1], 2, _HOME)
            with pytest.raises(PlatformError, match="does not follow"):
                platform.unfollow(sessions[3], 4, _HOME)
        assert len(platform.log) == before + 1
        assert not platform.graph.is_following(1, 2)

    def test_installed_policy_defers_unfollow_rows(self):
        policy = _FixedPolicy(CountermeasureDecision.ALLOW)
        platform, sessions, media = _world(policy)
        platform.follow(sessions[1], 2, _HOME)
        before = len(platform.log)
        with platform.action_batch():
            assert platform.unfollow(sessions[1], 2, _HOME) == before
            assert not platform.graph.is_following(1, 2)
            assert len(platform.log) == before
        assert len(platform.log) == before + 1
        assert platform.log.get(before).action_type is ActionType.UNFOLLOW
        scoped, scoped_outcomes = _run_scoped(policy, _UNFOLLOW_OPS, scope_len=4)
        scalar, scalar_outcomes = _run_scalar(policy, _UNFOLLOW_OPS)
        assert scoped_outcomes == scalar_outcomes
        assert _state(scoped) == _state(scalar)
