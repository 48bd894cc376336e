"""Action-batch scopes under countermeasure policies equal the scalar oracle.

Twin worlds run the same random script, tick by tick. In one, the
production platform, every agent run is issued inside the platform's
``action_batch`` scope (as the study scheduler runs it) and
``submit_batch`` bursts open their own scope. In the other, the
reference :class:`tests.oracles.platform.ScalarPlatform` has no batch
scope, so every action writes its row at once. The policies cover the
paper's threshold-and-bin design (narrow bins, broad bins with the
delay->block switch, per-action treatments), the blanket ASN block, and
a scripted policy that delay-removes likes. After every tick the log
rows (ids, status, ``removed_at``), the graph, the likes, the
notifications (with their action ids), the policies' counters, the
engine's counters, the clock's pending callbacks and the outcome
counts must be equal.

A study-level twin runs the tiny study through a narrow and a broad
intervention, once on the production platform and once on the scalar
oracle, and compares the intervention outcomes and the full log.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest

from repro.core import Study, StudyConfig
from repro.interventions.bins import BinAssignment, account_bin
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan
from repro.interventions.policy import ThresholdBinPolicy
from repro.interventions.thresholds import CountSubject, ThresholdEntry, ThresholdTable
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.api import PrivateMobileAPI
from repro.platform.countermeasures import CountermeasureDecision
from repro.platform.errors import PlatformError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import ActionStatus, ActionType
from repro.util.rng import derive_rng

from tests.oracles.platform import ScalarPlatform
from tests.oracles.policy import BlanketAsnPolicy
from tests.test_platform_actionlog_batch import _HOME, _FixedPolicy, _world
from tests.test_platform_columnar_log import _rows

N_USERS = 30
TICKS = 60
REMOVAL_DELAY = 5
#: the broad design's delay->block switch, in ticks after install
SWITCH_AFTER = 26

#: the AAS exit the thresholds cover, a benign exit, and a blanket-blocked one
AAS_ASN, HOME_ASN, BLANKET_ASN = 700, 701, 702
_ENDPOINTS = (
    ClientEndpoint(0x0A000001, AAS_ASN, DeviceFingerprint("android", "aas")),
    ClientEndpoint(0x0A000002, HOME_ASN, DeviceFingerprint("android")),
    ClientEndpoint(0x0A000003, BLANKET_ASN, DeviceFingerprint("ios")),
)
#: the AAS exit carries most traffic, so thresholds are crossed daily
_ENDPOINT_WEIGHTS = (0.6, 0.25, 0.15)
_KINDS = ("like", "like", "like", "follow", "follow", "follow", "unfollow", "comment", "post")


class _ScriptedLikeDelay:
    """Delay-removes every other like; counts what it sees."""

    def __init__(self):
        self.likes_seen = 0
        self.decisions_applied = 0

    def decide(self, context):
        if context.action_type is not ActionType.LIKE:
            return CountermeasureDecision.ALLOW
        self.likes_seen += 1
        if self.likes_seen % 2:
            return CountermeasureDecision.ALLOW
        self.decisions_applied += 1
        return CountermeasureDecision.DELAY_REMOVE


def _thresholds() -> ThresholdTable:
    table = ThresholdTable()
    table.add(ThresholdEntry(AAS_ASN, ActionType.FOLLOW, 2, CountSubject.ACTOR, mixed_asn=True))
    table.add(ThresholdEntry(AAS_ASN, ActionType.LIKE, 3, CountSubject.TARGET, mixed_asn=False))
    return table


def _threshold_policy(assignment, per_action=None):
    return ThresholdBinPolicy(
        thresholds=_thresholds(), assignment=assignment, per_action_treatments=per_action or {}
    )


def _install_narrow(platform):
    return [_threshold_policy(BinAssignment.narrow())]


def _install_broad(platform):
    policy = _threshold_policy(BinAssignment.broad_delay())

    def _switch(tick):
        policy.set_assignment(BinAssignment.broad_block())

    platform.clock.call_after(SWITCH_AFTER, _switch)
    return [policy]


def _install_per_action(platform):
    # the epilogue regime: treated likes block while treated follows delay
    per_action = {
        ActionType.LIKE: CountermeasureDecision.BLOCK,
        ActionType.FOLLOW: CountermeasureDecision.DELAY_REMOVE,
    }
    return [_threshold_policy(BinAssignment.broad_block(), per_action)]


def _install_blanket(platform):
    return [BlanketAsnPolicy(frozenset({BLANKET_ASN}))]


def _install_like_delay(platform):
    return [_ScriptedLikeDelay()]


def _install_stacked(platform):
    # strictest-of across three policies, each counting its own attempts
    return _install_narrow(platform) + _install_blanket(platform) + _install_like_delay(platform)


SCENARIOS = {
    "narrow": _install_narrow,
    "broad": _install_broad,
    "per-action": _install_per_action,
    "blanket": _install_blanket,
    "like-delay": _install_like_delay,
    "stacked": _install_stacked,
}


def _policy_state(policy):
    if isinstance(policy, ThresholdBinPolicy):
        return dict(policy._attempts), dict(policy.decisions_applied), policy.assignment
    if isinstance(policy, BlanketAsnPolicy):
        return policy.decisions_applied
    return policy.likes_seen, policy.decisions_applied


class _Twin:
    def __init__(self, install, batched: bool):
        # the reference has no scope, submit_batch's included: each
        # action writes its own row
        platform_type = InstagramPlatform if batched else ScalarPlatform
        self.platform = platform = platform_type(removal_delay_ticks=REMOVAL_DELAY)
        self.api = PrivateMobileAPI(platform, ceiling_per_hour=40)
        self.sessions = {}
        self.media = {}
        home = _ENDPOINTS[1]
        for n in range(1, N_USERS + 1):
            account = platform.create_account(f"user{n}", "pw")
            session = platform.login(f"user{n}", "pw", home)
            self.sessions[account.account_id] = session
            self.media[account.account_id] = [
                platform.post(session, home, caption=str(k))[1].media_id for k in range(2)
            ]
        self.policies = install(platform)
        for policy in self.policies:
            platform.countermeasures.add_policy(policy)
        self.outcomes = Counter()

    def _issue(self, step) -> None:
        kind, actor, target, pick, endpoint = step
        platform = self.platform
        session = self.sessions[actor]
        try:
            if kind == "like":
                platform.like(session, self.media[target][pick], endpoint)
            elif kind == "follow":
                platform.follow(session, target, endpoint)
            elif kind == "unfollow":
                platform.unfollow(session, target, endpoint)
            elif kind == "comment":
                platform.comment(session, self.media[target][pick], "nice", endpoint)
            else:
                platform.post(session, endpoint)
        except PlatformError as exc:
            self.outcomes[(kind, type(exc).__name__)] += 1
        else:
            self.outcomes[(kind, "ok")] += 1

    def _burst(self, burst) -> None:
        actor, script, endpoint = burst
        # likes and comments name (owner, pick); resolve to the media id
        requests = [
            (kind, self.media[args[0]][args[1]], *args[2:]) if kind in ("like", "comment")
            else (kind, *args)
            for kind, *args in script
        ]
        try:
            self.api.submit_batch(self.sessions[actor], requests, endpoint)
        except PlatformError as exc:
            self.outcomes[("burst", type(exc).__name__)] += 1
        else:
            self.outcomes[("burst", "ok")] += 1

    def run_tick(self, runs) -> None:
        for kind, payload in runs:
            if kind == "burst":
                # outside any agent scope: submit_batch opens its own
                self._burst(payload)
                continue
            with self.platform.action_batch():
                for step in payload:
                    if step[0] == "burst":
                        self._burst(step[1])  # nested: the agent's scope
                    else:
                        self._issue(step)
        self.platform.clock.advance(1)

    def state(self):
        platform = self.platform
        users = range(1, N_USERS + 1)
        engine = platform.countermeasures
        return (
            _rows(iter(platform.log)),
            sorted((src, dst) for src in users for dst in platform.graph.following(src)),
            [(m, sorted(platform.media.likes(m))) for a in users for m in self.media[a]],
            {a: platform.notifications.pending(a) for a in users},
            [_policy_state(p) for p in self.policies],
            (engine.blocked_count, engine.delayed_removal_count),
            platform.clock.pending_callbacks(),
            dict(self.outcomes),
        )


def _step(rng):
    kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
    endpoint = _ENDPOINTS[int(rng.choice(len(_ENDPOINTS), p=_ENDPOINT_WEIGHTS))]
    return (
        kind,
        int(rng.integers(1, N_USERS + 1)),
        int(rng.integers(1, N_USERS + 1)),
        int(rng.integers(0, 2)),
        endpoint,
    )


def _burst_payload(rng):
    actor = int(rng.integers(1, N_USERS + 1))
    endpoint = _ENDPOINTS[int(rng.choice(len(_ENDPOINTS), p=_ENDPOINT_WEIGHTS))]
    requests = []
    for _ in range(int(rng.integers(2, 12))):
        target = int(rng.integers(1, N_USERS + 1))
        roll = rng.random()
        if roll < 0.4:
            requests.append(("like", target, int(rng.integers(0, 2))))
        elif roll < 0.8:
            requests.append(("follow", target))
        elif roll < 0.9:
            requests.append(("unfollow", target))
        else:
            requests.append(("comment", target, 0, "wow"))
    return actor, requests, endpoint


def _script(seed: int):
    """Per tick: agent runs (lists of steps, some holding a nested burst)
    and stand-alone bursts."""
    rng = derive_rng(seed, "policy-batch-equivalence")
    ticks = []
    for _ in range(TICKS):
        runs = []
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.2:
                runs.append(("burst", _burst_payload(rng)))
                continue
            # one actor's run, as an AAS or organic agent issues it
            steps = [_step(rng) for _ in range(int(rng.integers(1, 15)))]
            if rng.random() < 0.3:
                steps.insert(int(rng.integers(0, len(steps))), ("burst", _burst_payload(rng)))
            runs.append(("run", steps))
        ticks.append(runs)
    return ticks


def _assert_twins_agree(install, seed):
    batched = _Twin(install, batched=True)
    scalar = _Twin(install, batched=False)
    for tick, runs in enumerate(_script(seed)):
        batched.run_tick(runs)
        scalar.run_tick(runs)
        assert batched.state() == scalar.state(), f"diverged at tick {tick}"
    return scalar


class TestPolicyBatchEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_twins_agree_after_every_tick(self, scenario, seed):
        world = _assert_twins_agree(SCENARIOS[scenario], seed)
        statuses = Counter(row.status for row in world.platform.log)
        engine = world.platform.countermeasures
        # each scenario exercises its countermeasure, not just ALLOW
        if scenario in ("narrow", "per-action", "blanket", "stacked", "broad"):
            assert engine.blocked_count > 0
            assert statuses[ActionStatus.BLOCKED] == engine.blocked_count
        if scenario in ("narrow", "broad", "per-action", "like-delay", "stacked"):
            assert engine.delayed_removal_count > 0
            assert statuses[ActionStatus.REMOVED] > 0

    def test_bins_cover_every_narrow_treatment(self):
        bins = {account_bin(a) for a in range(1, N_USERS + 1)}
        assert {0, 1, 2} <= bins

    def test_broad_switch_fires_mid_script(self):
        world = _Twin(_install_broad, batched=True)
        for runs in _script(0)[: SWITCH_AFTER + 1]:
            world.run_tick(runs)
        assert world.policies[0].assignment == BinAssignment.broad_block()

    def test_blanket_blocks_unfollows_comments_and_posts(self):
        world = _assert_twins_agree(_install_blanket, 0)
        blocked = Counter(
            row.action_type for row in world.platform.log if row.status is ActionStatus.BLOCKED
        )
        for action_type in ActionType:
            assert blocked[action_type] > 0, action_type


# ----------------------------------------------------------------------
# Delayed removal of deferred rows
# ----------------------------------------------------------------------

_DELAY = _FixedPolicy(CountermeasureDecision.DELAY_REMOVE)


class TestDelayedRemovalOfDeferredRows:
    def test_removal_fires_exactly_after_the_delay(self):
        platform, sessions, _ = _world(_DELAY)
        delay = platform.countermeasures.removal_delay_ticks
        platform.clock.advance(3)
        with platform.action_batch():
            action_id = platform.follow(sessions[1], 2, _HOME)
            assert action_id == len(platform.log)  # still pending
        row = platform.log.get(action_id)
        assert row.action_type is ActionType.FOLLOW
        platform.clock.advance(delay - 1)
        assert row.status is ActionStatus.DELIVERED
        assert platform.graph.is_following(1, 2)
        platform.clock.advance(1)
        assert row.status is ActionStatus.REMOVED
        assert row.removed_at == 3 + delay
        assert not platform.graph.is_following(1, 2)
        assert platform.clock.pending_callbacks() == 0

    def test_row_stays_delivered_if_the_actor_unfollowed_first(self):
        platform, sessions, _ = _world(_DELAY)
        with platform.action_batch():
            platform.follow(sessions[1], 2, _HOME)
            platform.unfollow(sessions[1], 2, _HOME)
        follow, unfollow = list(platform.log)[-2:]
        assert follow.action_type is ActionType.FOLLOW
        assert unfollow.action_type is ActionType.UNFOLLOW
        platform.clock.advance(platform.countermeasures.removal_delay_ticks)
        assert follow.status is ActionStatus.DELIVERED
        assert follow.removed_at is None
        assert platform.countermeasures.delayed_removal_count == 1
        assert platform.clock.pending_callbacks() == 0

    @pytest.mark.parametrize("batched", [True, False])
    def test_removals_due_in_one_tick_fire_in_scheduling_order(self, batched):
        platform, sessions, media = _world(_DELAY, InstagramPlatform if batched else ScalarPlatform)
        undone = []
        unfollow, unlike = platform.graph.unfollow, platform.media.unlike
        platform.graph.unfollow = lambda a, b: undone.append(("follow", a, b)) or unfollow(a, b)
        platform.media.unlike = lambda m, a: undone.append(("like", m, a)) or unlike(m, a)
        with platform.action_batch():
            platform.follow(sessions[1], 3, _HOME)
            platform.like(sessions[2], media[1][0], _HOME)
            platform.follow(sessions[2], 4, _HOME)
            platform.like(sessions[1], media[4][0], _HOME)
        delay = platform.countermeasures.removal_delay_ticks
        platform.clock.advance(delay)
        assert undone == [
            ("follow", 1, 3),
            ("like", media[1][0], 2),
            ("follow", 2, 4),
            ("like", media[4][0], 1),
        ]
        removed = [r for r in platform.log if r.status is ActionStatus.REMOVED]
        assert [r.removed_at for r in removed] == [delay] * 4


# ----------------------------------------------------------------------
# Study-level twin
# ----------------------------------------------------------------------


def _outcome_summary(outcome):
    return (
        outcome.name,
        outcome.start_day,
        outcome.end_day,
        outcome.switch_day,
        outcome.assignment,
        outcome.thresholds,
        {
            name: (activity.service_type, [r.action_id for r in activity.records])
            for name, activity in outcome.attributed.items()
        },
    )


def _run_study(seed: int):
    study = Study(StudyConfig.tiny(seed=seed))
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement(days_=3)
    narrow = study.run_narrow_intervention(
        NarrowInterventionPlan(duration_days=3), calibration_days=2
    )
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=2, block_days=2), calibration_days=2
    )
    engine = study.platform.countermeasures
    return (
        [_outcome_summary(narrow), _outcome_summary(broad)],
        _rows(iter(study.platform.log)),
        (engine.blocked_count, engine.delayed_removal_count),
    )


def test_study_interventions_match_without_the_batch_scope():
    batched = _run_study(seed=3)
    with mock.patch("repro.core.study.InstagramPlatform", ScalarPlatform):
        scalar = _run_study(seed=3)
    assert batched[0] == scalar[0]
    assert batched[1] == scalar[1]
    assert batched[2] == scalar[2]
    blocked, delayed = batched[2]
    assert blocked > 0 and delayed > 0
