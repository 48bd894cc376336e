"""The reciprocity engine equals its copying reference, tick by tick.

Twin seeded worlds, one served by the production
:class:`ReciprocityAbuseService` (each tick inside the platform's
action-batch scope, as the study scheduler runs it) and one by the
copying oracle (:class:`tests.oracles.reciprocity.CopyingReciprocityService`,
each tick outside any scope, so every action opens its own one-action
scope), run the same random script: customers
with and without hashtag audiences and auto-unfollow, joining,
cancelling and paying; follows and unfollows made behind the service's
back; a blanket ASN block window that drives block detection, backoff
and an ASN migration; a one-day like cooldown expiring across day
boundaries; and a candidate universe small enough for follow targeting
to run dry. After every tick the service and targeting RNG states, the
new log rows, each customer's ``targeted`` set and issued follows, the
live like-cooldown entries, the throttles, the unfollow queue and the
outcome counts must be equal.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.aas.adaptation import MigrationPolicy
from repro.aas.base import IssueOutcome, ServiceDescriptor, ServiceType
from repro.aas.blockdetect import BlockDetectorConfig
from repro.aas.pricing import INSTALEX_PRICING
from repro.aas.reciprocity_service import ReciprocityAbuseService, ReciprocityServiceConfig
from repro.aas.targeting import CuratedPool, ReciprocityTargeting
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.platform.models import ActionType
from repro.util import derive_rng
from repro.util.timeutils import days
from tests.oracles.policy import BlanketAsnPolicy
from tests.oracles.reciprocity import CopyingReciprocityService

TICKS = 5 * 24
CUSTOMERS = 8
#: ticks during which the platform refuses everything from the
#: service's original exits
BLOCK = range(30, 66)
TAGS = ("food", "travel")
#: a reciprocity service offering every action the engine dispatches
DESCRIPTOR = ServiceDescriptor(
    name="Twin",
    service_type=ServiceType.RECIPROCITY_ABUSE,
    offered_actions=frozenset(ActionType),
    operating_country="RUS",
    asn_countries=("USA",),
)


def _config() -> ReciprocityServiceConfig:
    return ReciprocityServiceConfig(
        pricing=INSTALEX_PRICING,
        daily_budgets={
            ActionType.LIKE: 40.0,
            ActionType.FOLLOW: 30.0,
            ActionType.COMMENT: 6.0,
            ActionType.POST: 2.0,
        },
        unfollow_after_days=1,
        like_retarget_cooldown_days=1,
        detector=BlockDetectorConfig(min_observations=4),
    )


class _World:
    def __init__(self, cls: type, seed: int):
        self.platform = InstagramPlatform()
        fabric = NetworkFabric(ASNRegistry(), derive_rng(seed, "fabric"))
        population = OrganicPopulation.generate(
            self.platform,
            fabric,
            derive_rng(seed, "population"),
            PopulationConfig(size=60, out_degree=DegreeDistribution(median=8.0, sigma=0.8)),
        )
        self.ids = []
        for i in range(CUSTOMERS):
            account = self.platform.create_account(f"c{i}", f"pw{i}")
            self.ids.append(account.account_id)
            for _ in range(2):
                self.platform.media.create(account.account_id, 0)
        # three customers are also candidates: selection must skip a
        # customer's own account
        candidates = list(population.account_ids[:36]) + self.ids[:3]
        for i, account in enumerate(candidates[:18]):
            self.platform.media.create(account, 0, hashtags=(TAGS[i % 2],))
        targeting = ReciprocityTargeting(
            self.platform,
            candidates,
            derive_rng(seed, "targeting"),
            out_degree_bias=1.2,
            in_degree_bias=1.4,
            curated=CuratedPool(accounts=candidates[:6], mix_fraction=0.3),
        )
        self.service: ReciprocityAbuseService = cls(
            DESCRIPTOR,
            self.platform,
            fabric,
            derive_rng(seed, "service"),
            _config(),
            targeting,
            migration=MigrationPolicy(
                fabric, derive_rng(seed, "migration"), patience_ticks=12
            ),
        )
        self.candidates = candidates
        for i in range(CUSTOMERS):
            self.register(i, trial_ticks=days(2 + i % 3))
        self.block = BlanketAsnPolicy(frozenset(self.service.current_asns()))

    def register(self, i: int, trial_ticks: int) -> None:
        actions = {ActionType.LIKE, ActionType.FOLLOW}
        if i % 2 == 0:
            actions.add(ActionType.UNFOLLOW)
        if i % 3 == 0:
            actions.add(ActionType.COMMENT)
        if i == 5:
            actions.add(ActionType.POST)
        tags = (TAGS[i % 2],) if i % 4 == 1 else ()
        self.service.register_customer(
            f"c{i}", f"pw{i}", actions, trial_ticks=trial_ticks, target_hashtags=tags
        )

    def tick(self, scoped: bool) -> None:
        if scoped:
            with self.platform.action_batch():
                self.service.tick()
        else:
            self.service.tick()

    def state(self) -> dict:
        service = self.service
        now = self.platform.clock.now
        since = now - days(service.config.like_retarget_cooldown_days)
        return {
            "rng": service.rng.bit_generator.state,
            "targeting_rng": service.targeting.rng.bit_generator.state,
            "rows": len(self.platform.log),
            "targeted": {a: sorted(r.targeted) for a, r in service.customers.items()},
            "issued": {a: list(r.issued_follows) for a, r in service.customers.items()},
            "cooldowns": {
                a: {t: tick for t, tick in recent.items() if tick > since}
                for a, recent in service._recent_like_targets.items()
                if any(tick > since for tick in recent.values())
            },
            "throttles": {key: asdict(t) for key, t in service._throttles.items()},
            "last_block": dict(service._last_block),
            "unfollows": list(service._unfollow_queue),
            "outcomes": dict(service.outcome_counts),
            "asns": sorted(service.current_asns()),
            "migrations": list(service.migration.migrations),
        }

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
                r.comment_text,
            )
            for r in list(self.platform.log)[start:]
        ]


def _script(worlds, script_rng: np.random.Generator, tick: int) -> None:
    """One hour of customer and bystander behaviour, identical in both worlds."""
    ref = worlds[0]
    who_i = int(script_rng.integers(0, CUSTOMERS))
    who = ref.ids[who_i]
    roll = script_rng.random()
    if roll < 0.04:
        for world in worlds:
            world.service.cancel_customer(who)
    elif roll < 0.10:
        if ref.service.customers[who].cancelled:
            trial = int(script_rng.integers(12, 72))
            for world in worlds:
                world.register(who_i, trial_ticks=trial)
        else:
            for world in worlds:
                world.service.purchase_period(who)
    elif roll < 0.25:
        # the customer follows a candidate by hand: the service later
        # finds the edge already there and only marks it targeted
        target = ref.candidates[int(script_rng.integers(0, len(ref.candidates)))]
        if target != who and not ref.platform.graph.is_following(who, target):
            for world in worlds:
                world.platform.graph.follow(who, target)
    elif roll < 0.40:
        # ...or drops a follow, so a queued auto-unfollow finds nothing
        following = sorted(ref.platform.graph.following(who))
        if following:
            target = following[int(script_rng.integers(0, len(following)))]
            for world in worlds:
                world.platform.graph.unfollow(who, target)
    elif roll < 0.45:
        owner = ref.candidates[int(script_rng.integers(0, len(ref.candidates)))]
        for world in worlds:
            world.platform.media.create(owner, tick, hashtags=(TAGS[tick % 2],))
    for world in worlds:
        if tick == BLOCK.start:
            world.platform.countermeasures.add_policy(world.block)
        elif tick == BLOCK.stop:
            world.platform.countermeasures.remove_policy(world.block)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_matches_copying_reference(seed):
    worlds = (_World(CopyingReciprocityService, seed), _World(ReciprocityAbuseService, seed))
    oracle, production = worlds
    script_rng = derive_rng(seed, "script")
    seen_rows = 0
    audience_likes = 0
    # follow selections that came back empty: only a follow passes a
    # plain set (the customer's ``targeted``) as its exclusion
    dry_follows = [0]
    select = production.service.targeting.select

    def counting_select(*args, **kwargs):
        picked = select(*args, **kwargs)
        dry_follows[0] += isinstance(kwargs.get("exclude"), set) and not picked
        return picked

    production.service.targeting.select = counting_select
    liked_at: dict[tuple[int, int], int] = {}
    retargeted = 0
    for tick in range(TICKS):
        _script(worlds, script_rng, tick)
        oracle.tick(scoped=False)
        production.tick(scoped=True)
        assert production.state() == oracle.state(), f"tick {tick}"
        new_rows = production.rows(seen_rows)
        assert new_rows == oracle.rows(seen_rows), f"tick {tick}"
        seen_rows = len(oracle.platform.log)
        service = production.service
        for row in new_rows:
            if row[3] != "like" or row[6] != "delivered":
                continue
            key = (row[2], row[4])
            if key in liked_at and row[1] - liked_at[key] >= days(1):
                retargeted += 1
            liked_at[key] = row[1]
            record = service.customers.get(row[2])
            if record is not None and record.target_hashtags:
                audience_likes += 1
        for world in worlds:
            world.platform.clock.advance(1)
    # the script reached every path it exists to check
    counts = production.service.outcome_counts
    kinds = {(row[3], row[6]) for row in production.rows(0)}
    for kind in ("like", "follow", "unfollow", "comment", "post"):
        assert (kind, "delivered") in kinds
    assert counts[IssueOutcome.BLOCKED] > 0
    assert counts[IssueOutcome.DELIVERED] > 0
    assert production.service.migration.migrations
    assert dry_follows[0] > 0
    assert audience_likes > 0
    assert retargeted > 0


def test_like_cooldown_excludes_then_releases():
    """A liked target is skipped inside the cooldown and eligible after it."""
    world = _World(ReciprocityAbuseService, 4)
    service = world.service
    platform = world.platform
    customer = world.ids[0]
    record = service.customers[customer]
    target = world.candidates[0]
    service._recent_like_targets[customer] = {target: platform.clock.now}
    cooldown = days(service.config.like_retarget_cooldown_days)
    assert target in service._like_exclusions(record)
    platform.clock.advance(cooldown - 1)
    assert target in service._like_exclusions(record)
    picks = [
        service.targeting.select(1, exclude=service._like_exclusions(record), own=customer)
        for _ in range(200)
    ]
    assert [target] not in picks
    platform.clock.advance(1)
    assert target not in service._like_exclusions(record)
    picks = [
        service.targeting.select(1, exclude=service._like_exclusions(record), own=customer)
        for _ in range(200)
    ]
    assert [target] in picks
    # the daily pass drops the expired entry; a fresh like stays
    service._recent_like_targets[customer][world.candidates[1]] = platform.clock.now
    service._prune_like_cooldowns()
    assert service._recent_like_targets[customer] == {world.candidates[1]: platform.clock.now}


def test_negative_like_cooldown_rejected():
    with pytest.raises(ValueError, match="like_retarget_cooldown_days"):
        ReciprocityServiceConfig(pricing=INSTALEX_PRICING, like_retarget_cooldown_days=-1)
    assert ReciprocityServiceConfig(
        pricing=INSTALEX_PRICING, like_retarget_cooldown_days=0
    ).like_retarget_cooldown_days == 0
