"""Property tests: ``ActionLog.append_batch`` vs the scalar oracles.

``append_batch(rows)`` must be semantically identical to
``for row in rows: log_action(*row)`` — same ids, same field values,
same index answers, same observer stream. These tests replay one
randomized op sequence (batches of varying size, scalar appends, and
mark_removed calls interleaved) into three logs:

* a columnar log fed through ``append_batch`` (the system under test),
* a columnar log fed row-by-row (the scalar-path oracle),
* the brute-force :class:`tests.oracles.actionlog.ListActionLog` fed
  row-by-row (the storage oracle),

and assert every query agrees — including the out-of-order fallback
(ticks drawn unsorted, so the bisect paths must degrade to scans) and
pickle round-trips taken mid-sequence.

One level up, the platform's ``action_batch`` scope must be invisible:
the same action sequence issued inside a scope and outside any scope
(the scalar path) leaves the same log, graph, media and notifications.
"""

import pickle

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog, ActionView
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import PlatformError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util.rng import derive_rng

from tests.oracles.actionlog import ListActionLog
from tests.test_platform_columnar_log import (
    _ENDPOINTS,
    _assert_queries_equivalent,
    _row,
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


def _script(seed: int, steps: int, monotonic: bool):
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
            if monotonic:
                tick += int(rng.integers(0, 3))
            else:
                tick = int(rng.integers(0, 50))
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
                    log.log_action(*row)
        elif op[0] == "scalar":
            log.log_action(*op[1])
        else:
            log.get(op[1]).mark_removed(op[2])


def _triple(seed: int, monotonic: bool, steps: int = 120):
    ops = _script(seed, steps, monotonic)
    batched = ActionLog()
    scalar_cols = ActionLog()
    ref = ListActionLog()
    _apply(batched, ops, batched=True)
    _apply(scalar_cols, ops, batched=False)
    _apply(ref, ops, batched=False)
    return ops, batched, scalar_cols, ref


class TestAppendBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_monotonic_interleavings(self, seed):
        _, batched, scalar_cols, ref = _triple(seed, monotonic=True)
        assert batched.ticks_monotonic
        _assert_queries_equivalent(batched, scalar_cols)
        _assert_queries_equivalent(batched, ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_out_of_order_interleavings_fall_back(self, seed):
        _, batched, scalar_cols, ref = _triple(seed, monotonic=False)
        assert not batched.ticks_monotonic
        with pytest.raises(ValueError):
            batched.offsets_between(5, 40)
        _assert_queries_equivalent(batched, scalar_cols)
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

    @pytest.mark.parametrize("monotonic", [True, False])
    def test_pickle_roundtrip_mid_sequence(self, monotonic):
        ops = _script(3, 120, monotonic)
        half = len(ops) // 2
        batched = ActionLog()
        ref = ListActionLog()
        _apply(batched, ops[:half], batched=True)
        _apply(ref, ops[:half], batched=False)
        batched = pickle.loads(pickle.dumps(batched))
        ref = pickle.loads(pickle.dumps(ref))
        # the restored log keeps accepting batches with correct ids
        _apply(batched, ops[half:], batched=True)
        _apply(ref, ops[half:], batched=False)
        _assert_queries_equivalent(batched, ref)

    def test_observer_streams_identical(self):
        """Per-row observers and bulk batch observers see the same rows,
        in append order, as the scalar oracle's observers."""
        ops = _script(11, 80, monotonic=True)
        batched = ActionLog()
        scalar_cols = ActionLog()
        seen_plain, seen_bulk, seen_scalar = [], [], []
        batched.add_observer(lambda r: seen_plain.append(_row(r)))

        def bulk(cols, start, end):
            for i in range(start, end):
                seen_bulk.append(_row(ActionView(cols, i)))

        batched.add_observer(lambda r: seen_bulk.append(_row(r)), batch=bulk)
        scalar_cols.add_observer(lambda r: seen_scalar.append(_row(r)))
        _apply(batched, ops, batched=True)
        _apply(scalar_cols, ops, batched=False)
        # streams reflect observation-time state (later mark_removed calls
        # are invisible to them), so compare stream-to-stream, not to the
        # final log contents
        assert len(seen_plain) == len(batched)
        assert seen_plain == seen_bulk == seen_scalar

    def test_batch_preserves_signature_bucket_sharing(self):
        """Rows whose endpoints share (asn, variant) must share one
        signature bucket whether they arrive batched or not."""
        rows = [
            (
                ActionType.LIKE, 1, t, _ENDPOINTS[0 if t % 2 else 2],
                ApiSurface.PRIVATE_MOBILE, ActionStatus.DELIVERED, 2, None, None,
            )
            for t in range(10)
        ]
        batched = ActionLog()
        batched.append_batch(rows)
        scalar = ActionLog()
        for row in rows:
            scalar.log_action(*row)
        asn = _ENDPOINTS[0].asn
        variant = _ENDPOINTS[0].fingerprint.variant
        assert batched.signature_keys() == scalar.signature_keys()
        assert batched.ids_by_signature(asn, variant) == list(range(10))
        assert batched.ids_by_signature(asn, variant) == scalar.ids_by_signature(
            asn, variant
        )


# ----------------------------------------------------------------------
# The platform's action_batch scope vs the scalar path
# ----------------------------------------------------------------------

_HOME = ClientEndpoint(0x0A000001, 64512, DeviceFingerprint("android"))
_N_USERS = 8


class _FixedPolicy:
    def __init__(self, decision):
        self.decision = decision

    def decide(self, context):
        return self.decision


def _world(policy=None):
    """A bare platform with a few users, each owning two posts."""
    platform = InstagramPlatform()
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


def _run_unscoped(policy, ops):
    platform, sessions, media = _world(policy)
    return platform, [_issue(platform, sessions, media, step) for step in ops]


class TestActionBatchScope:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scope_matches_scalar_path(self, seed):
        ops = _action_script(seed)
        scoped, scoped_outcomes = _run_scoped(None, ops, scope_len=12)
        scalar, scalar_outcomes = _run_unscoped(None, ops)
        assert scoped_outcomes == scalar_outcomes
        assert "InvalidActionError" in scalar_outcomes  # rejections exercised
        assert _state(scoped) == _state(scalar)

    def test_scope_defers_rows_until_exit(self):
        platform, sessions, media = _world()
        before = len(platform.log)
        with platform.action_batch():
            assert platform.like(sessions[1], media[2][0], _HOME) is None
            assert len(platform.log) == before
        assert len(platform.log) == before + 1

    def test_installed_policy_makes_scope_defer_nothing(self):
        policy = _FixedPolicy(CountermeasureDecision.DELAY_REMOVE)
        platform, sessions, media = _world(policy)
        before = len(platform.log)
        with platform.action_batch():
            record = platform.like(sessions[1], media[2][0], _HOME)
            assert record is not None and record.action_id == before
            assert len(platform.log) == before + 1
            platform.follow(sessions[1], 2, _HOME)
            assert len(platform.log) == before + 2
        ops = _action_script(5)
        scoped, scoped_outcomes = _run_scoped(policy, ops, scope_len=12)
        scalar, scalar_outcomes = _run_unscoped(policy, ops)
        assert scoped_outcomes == scalar_outcomes
        assert _state(scoped) == _state(scalar)
