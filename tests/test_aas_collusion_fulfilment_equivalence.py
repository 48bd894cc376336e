"""Collusion fulfilment equals the per-attempt reference loop.

Twin seeded worlds, one served by the production
:class:`CollusionNetworkService` and one by the per-attempt oracle
(:class:`tests.oracles.collusion.PerAttemptCollusionService`), run the
same random script: free requests, one-time packages, monthly plans,
``no_outbound`` purchases, forced recipient caps, recipients without
media, a small pool whose follows saturate, customers joining, leaving
and expiring (so pool membership changes across ticks), follow edges
withdrawn between ticks, and a blanket ASN block so issues come back
BLOCKED. Scripted cases add like saturation: photos the whole pool
already likes, saturation reached mid-visit, a like withdrawn between
ticks, a recipient both capped and saturated, and the free-like verdict
living one tick. Others add follow saturation: reached on a visit's
last budget unit, a saturated recipient's orders interleaved with
orders of other pool sizes, and a saturated recipient deleted between
ticks. Changes between ticks to a saturated follow recipient get their
own cases: pool churn, a withdrawn follow, a delayed removal under
``ThresholdBinPolicy``, a deleted source, a follow from outside the
engine and a snapshot/restore. After every tick the cursor, the
service RNG, the log rows, every order's progress, the like tallies and
caps, and the outcome counts must be equal, and every recipient the
tick found follow-saturated must be followed by its whole pool.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.aas.ads import PopUnderAdNetwork
from repro.aas.base import IssueOutcome
from repro.aas.blockdetect import BlockDetectorConfig
from repro.aas.collusion_service import (
    CollusionNetworkService,
    CollusionServiceConfig,
    ServiceSuspendedError,
)
from repro.aas.pricing import HublaagramCatalog
from repro.aas.services.hublaagram import HUBLAAGRAM_DESCRIPTOR
from repro.interventions.bins import BinAssignment, account_bin
from repro.interventions.policy import ThresholdBinPolicy
from repro.interventions.thresholds import CountSubject, ThresholdEntry, ThresholdTable
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.platform.models import ActionType
from repro.util import derive_rng
from tests.oracles.collusion import PerAttemptCollusionService
from tests.oracles.policy import BlanketAsnPolicy

TICKS = 96
ACTIONS = (ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT)
#: ticks during which the platform blocks every like / follow from the
#: service's exits
LIKE_BLOCK = range(20, 60)
FOLLOW_BLOCK = range(40, 52)


def _config() -> CollusionServiceConfig:
    return CollusionServiceConfig(
        catalog=HublaagramCatalog().scaled(0.05),
        likes_per_free_request=8,
        follows_per_free_request=5,
        comments_per_free_request=2,
        free_delivery_per_hour=3,
        paid_delivery_per_hour=6,
        detector=BlockDetectorConfig(
            min_observations=4, deployment_lag_ticks={ActionType.LIKE: 6}
        ),
        suspend_sales_after_days=2,
    )


class _World:
    def __init__(self, cls: type, seed: int, members: int):
        self.platform = InstagramPlatform()
        fabric = NetworkFabric(ASNRegistry(), derive_rng(seed, "fabric"))
        rng = derive_rng(seed, "service")
        self.service: CollusionNetworkService = cls(
            HUBLAAGRAM_DESCRIPTOR,
            self.platform,
            fabric,
            rng,
            _config(),
            ads=PopUnderAdNetwork(rng),
        )
        self.orders: list = []
        self.ids = []
        for i in range(members):
            account = self.platform.create_account(f"m{i}", f"pw{i}")
            self.ids.append(account.account_id)
            for _ in range(i % 4):  # every fourth member has no media
                self.platform.media.create(account.account_id, 0)
            self.register(i, trial_ticks=24 + 12 * (i % 7))
        blocked = frozenset(self.service.current_asns())
        self.like_block = BlanketAsnPolicy(blocked, frozenset({ActionType.LIKE}))
        self.follow_block = BlanketAsnPolicy(blocked, frozenset({ActionType.FOLLOW}))

    def register(self, i: int, trial_ticks: int) -> None:
        self.service.register_customer(f"m{i}", f"pw{i}", set(ACTIONS), trial_ticks=trial_ticks)

    def state(self) -> dict:
        service = self.service
        return {
            "cursor": service._source_cursor,
            "rng": service.rng.bit_generator.state,
            "rows": len(self.platform.log),
            "delivered": [(o.order_id, o.delivered) for o in self.orders],
            "open": [o.order_id for o in service._orders],
            "plans": {a: dict(p.progress) for a, p in service.monthly_plans.items()},
            "attempts": dict(service._recipient_attempts),
            "caps": dict(service._recipient_caps),
            "outcomes": dict(service.outcome_counts),
            "suspended": service.sales_suspended,
        }

    def restore(self) -> None:
        """Pickle the world between ticks and carry on with the copy."""
        blob = pickle.dumps(
            (self.platform, self.service, self.orders, self.like_block, self.follow_block)
        )
        (
            self.platform,
            self.service,
            self.orders,
            self.like_block,
            self.follow_block,
        ) = pickle.loads(blob)

    def rows(self, start: int) -> list[tuple]:
        return [
            (
                r.action_id,
                r.tick,
                r.actor,
                r.action_type.value,
                r.target_account,
                r.target_media,
                r.status.value,
                r.endpoint.asn,
                r.endpoint.address,
            )
            for r in list(self.platform.log)[start:]
        ]


def _recount(service: CollusionNetworkService, recipient: int) -> int:
    """Pool sources of the service's last tick pool not following ``recipient``."""
    graph = service.platform.graph
    return sum(
        not graph.is_following(record.account_id, recipient)
        for record in service._pool_cache
        if record.account_id != recipient
    )


def _check_follows_saturated(service: CollusionNetworkService) -> None:
    """Every recipient the tick found follow-saturated is followed by
    its whole pool: the invariant ``tick``'s jump relies on."""
    for recipient in service._follows_saturated:
        assert _recount(service, recipient) == 0, f"recipient {recipient}"


def _both(worlds, step) -> None:
    """Apply ``step`` to each world; both must return or raise alike."""
    results = []
    for world in worlds:
        try:
            order = step(world)
        except (KeyError, ServiceSuspendedError) as exc:
            results.append(type(exc).__name__)
            continue
        if order is not None:
            world.orders.append(order)
            results.append(order.order_id)
        else:
            results.append(None)
    assert results[0] == results[1]


def _script(worlds, driver: np.random.Generator, tick: int, members: int) -> None:
    """One hour of customer behaviour, applied identically to both worlds."""
    ref = worlds[0]
    catalog = ref.service.config.catalog
    for _ in range(int(driver.integers(0, 4))):
        who = ref.ids[int(driver.integers(0, members))]
        action = ACTIONS[int(driver.integers(0, len(ACTIONS)))]
        _both(worlds, lambda w: w.service.request_free_service(who, action))
    roll = driver.random()
    who_i = int(driver.integers(0, members))
    who = ref.ids[who_i]
    media = ref.platform.media.media_of(who)
    if roll < 0.15 and media:
        package = catalog.one_time_packages[int(driver.integers(0, len(catalog.one_time_packages)))]
        media_id = media[int(driver.integers(0, len(media)))].media_id
        _both(worlds, lambda w: w.service.purchase_one_time_likes(who, package, media_id))
    elif roll < 0.22:
        tier = catalog.monthly_tiers[int(driver.integers(0, len(catalog.monthly_tiers)))]
        _both(worlds, lambda w: w.service.purchase_monthly_plan(who, tier) and None)
    elif roll < 0.27:
        _both(worlds, lambda w: w.service.purchase_no_outbound(who))
    elif roll < 0.35:
        for world in worlds:
            world.platform.media.create(who, tick)
    elif roll < 0.45:
        cap = float(driver.integers(1, 6))
        for world in worlds:
            world.service._recipient_caps[who] = cap
    elif roll < 0.50:
        for world in worlds:
            world.service.cancel_customer(who)
    elif roll < 0.56:
        trial = int(driver.integers(6, 48))
        if ref.service.customers[who].cancelled:
            for world in worlds:
                world.register(who_i, trial_ticks=trial)
    elif roll < 0.66:
        followers = sorted(ref.platform.graph.followers(who))
        if followers:
            src = followers[int(driver.integers(0, len(followers)))]
            for world in worlds:
                world.platform.graph.unfollow(src, who)
    for world in worlds:
        cm = world.platform.countermeasures
        for policy, window in ((world.like_block, LIKE_BLOCK), (world.follow_block, FOLLOW_BLOCK)):
            if tick == window.start:
                cm.add_policy(policy)
            elif tick == window.stop:
                cm.remove_policy(policy)


@pytest.mark.parametrize("members", [7, 16])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fulfilment_matches_per_attempt_loop(seed, members):
    worlds = (
        _World(PerAttemptCollusionService, seed, members),
        _World(CollusionNetworkService, seed, members),
    )
    oracle, production = worlds
    driver = derive_rng(seed, "driver")
    # member 0 has no media: its free like orders can never issue
    _both(worlds, lambda w: w.service.request_free_service(w.ids[0], ActionType.LIKE))
    seen_rows = 0
    saturated = capped = stalled_free = 0
    pool_sizes = set()
    for tick in range(TICKS):
        _script(worlds, driver, tick, members)
        for world in worlds:
            world.service.tick()
        assert production.state() == oracle.state(), f"tick {tick}"
        assert production.rows(seen_rows) == oracle.rows(seen_rows), f"tick {tick}"
        seen_rows = len(oracle.platform.log)
        service = production.service
        _check_follows_saturated(service)
        saturated += len(service._follows_saturated)
        day = production.platform.clock.day
        capped += sum(
            service._recipient_attempts.get((r, day), 0) >= cap
            for r, cap in service._recipient_caps.items()
        )
        stalled_free += sum(
            o.action_type is ActionType.LIKE
            and o.single_media is None
            and not production.platform.media.media_of(o.customer)
            for o in service._orders
        )
        pool_sizes.add(len(service._pool_cache))
        for world in worlds:
            world.platform.clock.advance(1)
    # the script reached every shortcut it exists to check
    assert saturated > 0
    assert capped > 0
    assert stalled_free > 0
    assert len(pool_sizes) > 2
    assert production.service.outcome_counts[IssueOutcome.BLOCKED] > 0
    assert production.service.outcome_counts[IssueOutcome.DELIVERED] > 0


def test_recipient_tallies_keep_only_today():
    world = _World(CollusionNetworkService, 4, 10)
    service = world.service
    for tick in range(3 * 24):
        if tick % 3 == 0:
            service.request_free_service(world.ids[tick % 10], ActionType.LIKE)
        service.tick()
        day = world.platform.clock.day
        assert all(key_day == day for _, key_day in service._recipient_attempts)
        world.platform.clock.advance(1)
    assert service._recipient_attempts


@pytest.mark.parametrize("seed", [5, 6])
def test_follows_saturate_across_visits(seed):
    """A pool larger than one visit's ``4 * budget`` attempts saturates
    over several visits of the same tick, and stays equal to the oracle.

    Two recipients request free follows every hour, so each has several
    open orders visited per tick; between ticks a few sources drop their
    follow, so saturation clears and forms again.
    """
    members = 24
    worlds = (
        _World(PerAttemptCollusionService, seed, members),
        _World(CollusionNetworkService, seed, members),
    )
    oracle, production = worlds
    for world in worlds:
        for i in range(members):
            world.service.customers[world.ids[i]].trial_expires = 10**6
    recipients = production.ids[1:3]
    script_rng = derive_rng(seed, "saturation-script")
    seen_rows = 0
    saturated_ticks = 0
    budget = production.service.config.free_delivery_per_hour
    for tick in range(48):
        for who in recipients:
            for _ in range(2):
                _both(worlds, lambda w: w.service.request_free_service(who, ActionType.FOLLOW))
        if tick % 6 == 5:
            for who in recipients:
                followers = sorted(production.platform.graph.followers(who))
                for _ in range(min(int(script_rng.integers(1, 4)), len(followers))):
                    src = followers.pop(int(script_rng.integers(0, len(followers))))
                    for world in worlds:
                        world.platform.graph.unfollow(src, who)
        for world in worlds:
            world.service.tick()
        assert production.state() == oracle.state(), f"tick {tick}"
        assert production.rows(seen_rows) == oracle.rows(seen_rows), f"tick {tick}"
        seen_rows = len(oracle.platform.log)
        service = production.service
        _check_follows_saturated(service)
        pool = len(service._pool_cache) - 1
        assert pool > 4 * budget
        saturated_ticks += any(who in service._follows_saturated for who in recipients)
        for world in worlds:
            world.platform.clock.advance(1)
    assert saturated_ticks > 0


def _fixed_pool_worlds(seed: int, members: int = 7):
    """Twin worlds whose customers never expire: a fixed pool."""
    worlds = (
        _World(PerAttemptCollusionService, seed, members),
        _World(CollusionNetworkService, seed, members),
    )
    for world in worlds:
        for record in world.service.customers.values():
            record.trial_expires = 10**6
    return worlds


def _lockstep(worlds, ticks: int, before_tick=lambda tick: None) -> list[set[int]]:
    """Tick both worlds ``ticks`` times, equal after every tick; returns
    the production world's follow-saturated recipients of each tick."""
    oracle, production = worlds
    seen_rows = len(oracle.platform.log)
    saturated = []
    for tick in range(ticks):
        before_tick(tick)
        for world in worlds:
            world.service.tick()
        assert production.state() == oracle.state(), f"tick {tick}"
        assert production.rows(seen_rows) == oracle.rows(seen_rows), f"tick {tick}"
        seen_rows = len(oracle.platform.log)
        _check_follows_saturated(production.service)
        saturated.append(set(production.service._follows_saturated))
        for world in worlds:
            world.platform.clock.advance(1)
    return saturated


class TestLikeSaturation:
    """Like visits to a recipient whose pool already likes the photo
    (or, for free likes, every photo) equal the per-attempt loop.

    Each script pre-likes photos of one recipient from its pool, then
    runs the two worlds in lockstep, comparing them after every tick.
    A spy on the production ``MediaStore.liked_by_all`` records each
    saturation test as ``(tick, media_id, result)``, so every script
    can check that the shortcut it exists for was taken.
    """

    @staticmethod
    def _spy(world) -> list[tuple[int, int, bool]]:
        tests: list[tuple[int, int, bool]] = []
        store = world.platform.media
        real = store.liked_by_all

        def liked_by_all(media_id, accounts):
            result = real(media_id, accounts)
            tests.append((world.platform.clock.now, media_id, result))
            return result

        store.liked_by_all = liked_by_all
        return tests

    @staticmethod
    def _photos(world, who: int) -> list[int]:
        return [m.media_id for m in world.platform.media.media_of(world.ids[who])]

    @staticmethod
    def _pool_likes(worlds, who: int, photos, skip: int = 0) -> None:
        """Every pool source but the first ``skip`` likes ``photos``."""
        for world in worlds:
            sources = [a for a in world.ids if a != world.ids[who]][skip:]
            for media_id in photos:
                for source in sources:
                    world.platform.media.like(media_id, source)

    def test_monthly_plan_photo_liked_by_the_whole_pool(self):
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        tests = self._spy(production)
        saturated = self._photos(production, 3)[0]
        self._pool_likes(worlds, 3, [saturated])
        tier = production.service.config.catalog.monthly_tiers[0]
        _both(worlds, lambda w: w.service.purchase_monthly_plan(w.ids[3], tier) and None)
        _lockstep(worlds, 12)
        assert (0, saturated, True) in tests
        # the saturated photo gains nothing; the plan's other photos do
        plan = production.service.monthly_plans[production.ids[3]]
        assert plan.progress[saturated] == 0
        assert sum(plan.progress.values()) > 0

    def test_free_likes_to_a_recipient_with_every_photo_liked(self):
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        tests = self._spy(production)
        photos = self._photos(production, 3)
        assert len(photos) == 3
        self._pool_likes(worlds, 3, photos)
        states = []

        def request(tick):
            if tick < 4:
                _both(worlds, lambda w: w.service.request_free_service(w.ids[3], ActionType.LIKE))
            states.append(production.service.rng.bit_generator.state)

        _lockstep(worlds, 6, request)
        assert {result for _, _, result in tests} == {True}
        assert all(o.delivered == 0 for o in production.orders)
        # every remaining media pick was still drawn, in one call
        assert production.service.rng.bit_generator.state != states[-1]

    def test_saturation_reached_mid_visit(self):
        worlds = _fixed_pool_worlds(4)  # a seed whose one visit saturates early
        oracle, production = worlds
        tests = self._spy(production)
        liked, half_liked = self._photos(production, 2)
        self._pool_likes(worlds, 2, [liked])
        self._pool_likes(worlds, 2, [half_liked], skip=2)
        _both(worlds, lambda w: w.service.request_free_service(w.ids[2], ActionType.LIKE))
        _lockstep(worlds, 1)
        # one visit: unsaturated at entry, saturated after its two likes,
        # with attempts (and so media picks) left to make in one call
        assert [result for _, media_id, result in tests if media_id == half_liked] == [
            False,
            False,
            True,
        ]
        (order,) = production.orders
        assert order.delivered == 2 and order.open

    def test_withdrawn_like_unsaturates_the_photo_next_tick(self):
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        tests = self._spy(production)
        photos = self._photos(production, 3)
        self._pool_likes(worlds, 3, photos)
        withdrawn = (photos[1], production.ids[5])

        def script(tick):
            if tick % 2 == 0:
                _both(worlds, lambda w: w.service.request_free_service(w.ids[3], ActionType.LIKE))
            if tick == 3:  # a delayed removal, between ticks 2 and 3
                for world in worlds:
                    world.platform.media.unlike(*withdrawn)

        _lockstep(worlds, 8, script)
        assert all(result for tick, _, result in tests if tick != 3)
        # the tick of the withdrawal probes again until the source likes
        # the photo back, then the visit stops probing
        withdrawn_tests = [result for tick, media_id, result in tests if tick == 3 and media_id == photos[1]]
        assert withdrawn_tests[0] is False and withdrawn_tests[-1] is True
        assert production.platform.media.has_liked(*withdrawn)
        assert sum(o.delivered for o in production.orders) == 1

    def test_capped_and_saturated_recipient_draws_nothing(self):
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        tests = self._spy(production)
        recipient = production.ids[3]
        self._pool_likes(worlds, 3, self._photos(production, 3))
        states = []

        def script(tick):
            _both(worlds, lambda w: w.service.request_free_service(recipient, ActionType.LIKE))
            for world in worlds:
                world.service._recipient_caps[recipient] = 2.0
                world.service._recipient_attempts[(recipient, world.platform.clock.day)] = 2
            states.append(production.service.rng.bit_generator.state)

        _lockstep(worlds, 3, script)
        assert tests == []  # the cap wins: no saturation test, no draw
        after = production.service.rng.bit_generator.state
        assert states[-1] == after

    def test_free_like_verdict_lasts_one_tick(self):
        """A free recipient found saturated is not tested again that
        tick, and the verdict does not outlive the tick: a photo posted,
        or a like withdrawn, between ticks is seen on the next tick."""
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        tests = self._spy(production)
        recipient = production.ids[3]
        photos = self._photos(production, 3)
        self._pool_likes(worlds, 3, photos)
        withdrawn = (photos[0], production.ids[5])
        posted = []

        def script(tick):
            for _ in range(2):
                _both(worlds, lambda w: w.service.request_free_service(recipient, ActionType.LIKE))
            if tick == 2:
                for world in worlds:
                    posted.append(world.platform.media.create(recipient, tick).media_id)
            if tick == 4:
                for world in worlds:
                    world.platform.media.unlike(*withdrawn)

        _lockstep(worlds, 6, script)

        def tested(tick):
            return [(media_id, result) for t, media_id, result in tests if t == tick]

        # two, then four open orders: one visit tests every photo, the
        # rest hit the verdict
        assert tested(0) == tested(1) == [(media_id, True) for media_id in photos]
        assert production.service._free_likes_saturated == {recipient}
        assert (posted[1], False) in tested(2)
        assert tested(4)[0] == (photos[0], False)
        assert production.platform.media.has_liked(*withdrawn)
        assert sum(o.delivered for o in production.orders) > 0


class TestFollowSaturation:
    """Follow visits to a recipient whose pool already follows it equal
    the per-attempt loop: the saturation test at visit entry and after
    each delivered follow, and the tick loop's jump once it holds."""

    @staticmethod
    def _follow_from_pool(worlds, who: int, skip=()) -> None:
        """Every other member but those at pool positions ``skip``
        follows member ``who``."""
        for world in worlds:
            pool = [a for a in world.ids if a != world.ids[who]]
            for position, source in enumerate(pool):
                if position not in skip:
                    world.platform.graph.follow(source, world.ids[who])

    @staticmethod
    def _spy(world) -> list[tuple[int, int]]:
        """Record the ``(tick, recipient)`` of each production follow visit."""
        visits: list[tuple[int, int]] = []
        service = world.service
        real = service._fulfil_order

        def fulfil_order(order):
            if order.action_type is ActionType.FOLLOW:
                visits.append((world.platform.clock.now, order.customer))
            real(order)

        service._fulfil_order = fulfil_order
        return visits

    def test_saturation_on_the_last_budget_unit_keeps_the_cursor(self):
        """The delivery that leaves no pool source unfollowing also
        spends the visit's last budget unit: the visit ends there,
        untested, and the cursor stays on the source that issued it. The
        recipient is found saturated on its next visit."""
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        service = production.service
        recipient = production.ids[3]
        budget = service.config.free_delivery_per_hour
        assert service._source_cursor == 0
        # the only non-followers are the next ``budget`` sources the
        # cursor reaches, so every attempt delivers
        self._follow_from_pool(worlds, 3, skip=range(1, budget + 1))
        _both(worlds, lambda w: w.service.request_free_service(w.ids[3], ActionType.FOLLOW))
        assert _lockstep(worlds, 1) == [set()]
        (order,) = production.orders
        assert order.delivered == budget and order.open
        pool = service._source_pool(recipient)
        (last,) = production.rows(len(production.platform.log) - 1)
        assert pool[service._source_cursor].account_id == last[2]
        assert service._source_cursor == budget
        # a jump past the 3 * budget attempts left would have moved it
        assert (3 * budget) % len(pool)
        # the open order's later visits only jump
        assert _lockstep(worlds, 3) == [{recipient}] * 3

    def test_saturated_recipient_is_visited_once_per_tick(self):
        """A recipient whose pool follows it, with several open orders
        interleaved with orders to recipients of other pool sizes: the
        tick loop visits it once per tick and jumps over the rest."""
        worlds = _fixed_pool_worlds(9)
        oracle, production = worlds
        visits = self._spy(production)
        saturated, outsider, other = (production.ids[i] for i in (3, 5, 1))
        self._follow_from_pool(worlds, 3)
        # the outsider opts out of the pool, so its orders draw on the
        # whole pool: one source more than the other recipients' orders
        _both(worlds, lambda w: w.service.purchase_no_outbound(outsider))

        def script(tick):
            for who in (saturated, outsider, saturated, other):
                _both(worlds, lambda w: w.service.request_free_service(who, ActionType.FOLLOW))

        _lockstep(worlds, 6, script)
        service = production.service
        pool_size = len(service._pool_cache)
        assert pool_size - 1 == len(service._source_pool(saturated))
        assert pool_size == len(service._source_pool(outsider))
        for tick in range(6):
            assert visits.count((tick, saturated)) == 1
        assert sum(o.customer == saturated for o in service._orders) == 12
        assert sum(o.delivered for o in production.orders if o.customer == outsider) > 0

    def test_deleted_recipient_orders_close_next_tick(self):
        """The tick loop's jump is per tick: a saturated recipient
        deleted between ticks has every open order closed out on the
        next tick's visits."""
        worlds = _fixed_pool_worlds(9)
        oracle, production = worlds
        visits = self._spy(production)
        recipient = production.ids[3]
        self._follow_from_pool(worlds, 3)

        def request(w):
            return w.service.request_free_service(recipient, ActionType.FOLLOW)

        def script(tick):
            if tick < 2:
                _both(worlds, request)
                _both(worlds, request)
            if tick == 2:
                for world in worlds:
                    world.platform.delete_account(recipient)

        _lockstep(worlds, 4, script)
        assert visits.count((1, recipient)) == 1
        assert visits.count((2, recipient)) == 4
        assert not production.service._orders
        assert all(o.delivered == o.quantity for o in production.orders)


class TestFollowSaturationBetweenTicks:
    """No follow saturation verdict outlives its tick: each tick tests
    the recipient's follower row afresh. Every case saturates (or
    half-saturates) one recipient, changes the world between ticks, and
    runs both worlds in lockstep."""

    RECIPIENT = 3

    @staticmethod
    def _request_every_tick(worlds, who: int):
        def script(tick):
            _both(worlds, lambda w: w.service.request_free_service(w.ids[who], ActionType.FOLLOW))

        return script

    def _saturated(self, seed: int = 8):
        worlds = _fixed_pool_worlds(seed)
        TestFollowSaturation._follow_from_pool(worlds, self.RECIPIENT)
        return worlds

    @staticmethod
    def _follow_ticks(world, recipient: int) -> list[int]:
        """The tick of each follow the world's log holds into ``recipient``."""
        return [row[1] for row in world.rows(0) if row[3] == "follow" and row[4] == recipient]

    def test_pool_churn_unsaturates_the_recipient(self):
        """A customer joining the pool of a saturated recipient is a
        source not yet following it: its follow is delivered, and the
        recipient is saturated again."""
        worlds = self._saturated()
        oracle, production = worlds
        recipient = production.ids[self.RECIPIENT]
        request = self._request_every_tick(worlds, self.RECIPIENT)
        joined = []

        def script(tick):
            request(tick)
            if tick == 3:
                for world in worlds:
                    account = world.platform.create_account("late", "pw-late")
                    world.service.register_customer("late", "pw-late", set(ACTIONS), trial_ticks=10**6)
                joined.append(account.account_id)
            if tick == 5:
                for world in worlds:
                    world.service.cancel_customer(world.ids[6])

        saturated = _lockstep(worlds, 8, script)
        assert all(recipient in verdicts for verdicts in saturated)
        assert production.platform.graph.is_following(joined[0], recipient)
        assert self._follow_ticks(production, recipient) == [3]

    def test_withdrawn_follow_into_saturated_recipient(self):
        worlds = self._saturated()
        oracle, production = worlds
        recipient = production.ids[self.RECIPIENT]
        withdrawn = production.ids[5]
        request = self._request_every_tick(worlds, self.RECIPIENT)

        def script(tick):
            request(tick)
            if tick == 3:
                for world in worlds:
                    world.platform.graph.unfollow(withdrawn, recipient)

        saturated = _lockstep(worlds, 6, script)
        # the tick of the withdrawal follows again, then saturates
        assert all(recipient in verdicts for verdicts in saturated)
        assert self._follow_ticks(production, recipient) == [3]
        assert production.platform.graph.is_following(withdrawn, recipient)

    def test_delayed_removal_under_threshold_policy(self):
        """Follows past a per-recipient daily limit are delay-removed a
        day later, inside ``clock.advance``: the recipient saturates,
        loses followers between ticks, and the engine follows again from
        the same sources."""
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        # a recipient in a treated bin (bin 0 is the control bin)
        who = next(i for i in range(1, 7) if account_bin(production.ids[i]) != 0)
        recipient = production.ids[who]
        for world in worlds:
            table = ThresholdTable()
            for asn in sorted(world.service.current_asns()):
                table.add(
                    ThresholdEntry(asn, ActionType.FOLLOW, 1, CountSubject.TARGET, mixed_asn=False)
                )
            world.platform.countermeasures.add_policy(
                ThresholdBinPolicy(thresholds=table, assignment=BinAssignment.broad_delay())
            )
        saturated = _lockstep(worlds, 40, self._request_every_tick(worlds, who))
        # a tick after one that ended saturated issued follows again
        assert any(
            tick and recipient in saturated[tick - 1]
            for tick in self._follow_ticks(production, recipient)
        )
        follows = [
            row[2] for row in production.rows(0) if row[3] == "follow" and row[4] == recipient
        ]
        assert len(follows) > len(set(follows))  # a removed follow was issued again

    def test_deleted_source_unsaturates_the_recipient(self):
        """A source deleted between ticks is still in that tick's pool,
        but its edges are gone: the recipient is not saturated, and the
        visit sends an attempt to the deleted source, which loses the
        engine its access and so leaves the next tick's pool."""
        worlds = self._saturated()
        oracle, production = worlds
        recipient = production.ids[self.RECIPIENT]
        request = self._request_every_tick(worlds, self.RECIPIENT)

        def script(tick):
            request(tick)
            if tick == 2:
                for world in worlds:
                    world.platform.delete_account(world.ids[5])

        saturated = _lockstep(worlds, 5, script)
        assert [recipient in verdicts for verdicts in saturated] == [True, True, False, True, True]
        assert production.service.outcome_counts[IssueOutcome.LOST_ACCESS] > 0

    def test_follow_from_outside_saturates_the_next_tick(self):
        """A follow from outside the engine leaves one pool source not
        following the recipient; the next tick's visit delivers it,
        finds the recipient saturated and jumps past its attempts left,
        and the tick after jumps at visit entry."""
        worlds = _fixed_pool_worlds(8)
        oracle, production = worlds
        recipient = production.ids[self.RECIPIENT]
        # only the first pool source follows the recipient
        TestFollowSaturation._follow_from_pool(worlds, self.RECIPIENT, skip=range(1, 6))
        outsider_follow = []

        def script(tick):
            if tick == 0:
                _both(worlds, lambda w: w.service.request_free_service(recipient, ActionType.FOLLOW))
            if tick == 1:
                # one of the two sources left follows on its own
                (src, *_) = [
                    r.account_id
                    for r in production.service._source_pool(recipient)
                    if not production.platform.graph.is_following(r.account_id, recipient)
                ]
                outsider_follow.append(src)
                for world in worlds:
                    world.platform.graph.follow(src, recipient)

        saturated = _lockstep(worlds, 4, script)
        assert outsider_follow
        assert [recipient in verdicts for verdicts in saturated] == [False, True, True, True]
        (order,) = production.orders
        assert order.open and self._follow_ticks(production, recipient) == [0, 0, 0, 1]

    def test_snapshot_restore_between_ticks(self):
        worlds = self._saturated()
        oracle, production = worlds
        recipient = production.ids[self.RECIPIENT]
        withdrawn = production.ids[1]
        request = self._request_every_tick(worlds, self.RECIPIENT)
        kept = []

        def script(tick):
            request(tick)
            if tick == 3:
                kept.append(set(production.service._follows_saturated))
                for world in worlds:
                    world.restore()
                assert production.service._follows_saturated == kept[0]
            if tick == 5:
                for world in worlds:
                    world.platform.graph.unfollow(withdrawn, recipient)

        saturated = _lockstep(worlds, 8, script)
        assert kept == [{recipient}]
        assert all(recipient in verdicts for verdicts in saturated)
        assert self._follow_ticks(production, recipient) == [5]
        assert production.platform.graph.is_following(withdrawn, recipient)
