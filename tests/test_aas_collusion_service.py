"""Tests for the collusion-network engine."""

import pytest

from repro.aas.services import make_followersgratis, make_hublaagram
from repro.platform import InstagramPlatform
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionType
from repro.netsim import ASNRegistry, NetworkFabric
from repro.util import derive_rng
from repro.util.timeutils import days


@pytest.fixture
def world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(61, "f"))
    service = make_hublaagram(platform, fabric, derive_rng(61, "svc"), quantity_scale=0.1)
    accounts = []
    for i in range(30):
        account = platform.create_account(f"member{i}", f"pw{i}")
        for _ in range(4):
            platform.media.create(account.account_id, 0)
        service.register_customer(f"member{i}", f"pw{i}", {ActionType.LIKE, ActionType.FOLLOW}, trial_ticks=days(30))
        accounts.append(account)
    return platform, fabric, service, accounts


def run_hours(platform, service, hours):
    for _ in range(hours):
        service.tick()
        platform.clock.advance(1)


class TestFreeService:
    def test_free_likes_delivered_from_other_customers(self, world):
        platform, fabric, service, accounts = world
        requester = accounts[0]
        order = service.request_free_service(requester.account_id, ActionType.LIKE)
        assert order is not None
        run_hours(platform, service, 3)
        inbound = platform.log.inbound(requester.account_id)
        likes = [r for r in inbound if r.action_type is ActionType.LIKE]
        assert len(likes) == order.quantity == service.config.likes_per_free_request
        sources = {r.actor for r in likes}
        assert requester.account_id not in sources
        assert sources <= {a.account_id for a in accounts}

    def test_free_requests_rate_limited(self, world):
        platform, fabric, service, accounts = world
        requester = accounts[0].account_id
        assert service.request_free_service(requester, ActionType.LIKE) is not None
        assert service.request_free_service(requester, ActionType.LIKE) is not None
        assert service.request_free_service(requester, ActionType.LIKE) is None
        platform.clock.advance(2)
        assert service.request_free_service(requester, ActionType.LIKE) is not None

    def test_free_ceiling_equals_paper_structure(self, world):
        platform, fabric, service, accounts = world
        # 2 requests/hour x likes/request = the free ceiling (160/h at full scale)
        assert (
            service.config.free_like_ceiling_per_hour
            == service.config.likes_per_free_request * 2
        )

    def test_ads_served_on_every_visit(self, world):
        platform, fabric, service, accounts = world
        requester = accounts[0].account_id
        before = service.ads.impressions
        service.request_free_service(requester, ActionType.LIKE)
        service.request_free_service(requester, ActionType.LIKE)
        service.request_free_service(requester, ActionType.LIKE)  # rate limited, still ads
        assert service.ads.impressions >= before + 3

    def test_follows_delivered(self, world):
        platform, fabric, service, accounts = world
        requester = accounts[1]
        order = service.request_free_service(requester.account_id, ActionType.FOLLOW)
        run_hours(platform, service, 3)
        assert platform.follower_count(requester.account_id) == order.quantity

    def test_non_customer_rejected(self, world):
        platform, fabric, service, accounts = world
        outsider = platform.create_account("outsider", "pw")
        with pytest.raises(KeyError):
            service.request_free_service(outsider.account_id, ActionType.LIKE)

    def test_orders_expire(self, world):
        platform, fabric, service, accounts = world
        requester = accounts[0]
        order = service.request_free_service(requester.account_id, ActionType.FOLLOW)
        order.quantity = 10**6  # unfillable
        run_hours(platform, service, order.ttl_ticks + 2)
        assert order not in service._orders  # dropped unfilled


class TestPaidServices:
    def test_no_outbound_fee(self, world):
        platform, fabric, service, accounts = world
        protected = accounts[0]
        service.purchase_no_outbound(protected.account_id)
        assert service.ledger.total_cents() == 1500
        other = accounts[1]
        service.request_free_service(other.account_id, ActionType.LIKE)
        run_hours(platform, service, 4)
        outbound = platform.log.by_actor(protected.account_id)
        assert outbound == []  # never used as a source

    def test_one_time_package_fast_delivery_to_one_post(self, world):
        platform, fabric, service, accounts = world
        buyer = accounts[2]
        package = service.config.catalog.one_time_packages[0]
        media = platform.media.media_of(buyer.account_id)[0]
        service.purchase_one_time_likes(buyer.account_id, package, media.media_id)
        run_hours(platform, service, 2)
        # all likes land on the designated post, faster than the free ceiling
        assert platform.media.like_count(media.media_id) >= min(package.likes, 29)
        hourly = {}
        for record in platform.log.inbound(buyer.account_id):
            if record.action_type is ActionType.LIKE:
                hourly[record.tick] = hourly.get(record.tick, 0) + 1
        assert max(hourly.values()) > service.config.free_like_ceiling_per_hour

    def test_monthly_plan_covers_new_photos(self, world):
        platform, fabric, service, accounts = world
        buyer = accounts[3]
        tier = service.config.catalog.monthly_tiers[0]
        plan = service.purchase_monthly_plan(buyer.account_id, tier)
        assert tier.likes_low <= plan.target_per_photo <= tier.likes_high
        # post a new photo; the plan should top it up
        profile_endpoint = platform.auth.login_endpoints(buyer.account_id)[-1]
        session = platform.login(buyer.username, "pw3", profile_endpoint)
        _, media = platform.post(session, profile_endpoint)
        run_hours(platform, service, 12)
        delivered = plan.progress.get(media.media_id, 0)
        assert delivered >= min(plan.target_per_photo, 25) * 0.8

    def test_unknown_package_rejected(self, world):
        platform, fabric, service, accounts = world
        from repro.aas.pricing import LikePackage

        with pytest.raises(ValueError):
            service.purchase_one_time_likes(accounts[0].account_id, LikePackage(7, 1), 0)


class _BlockLikesFrom:
    def __init__(self, asns):
        self.asns = asns

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        if context.action_type is ActionType.LIKE and context.endpoint.asn in self.asns:
            return CountermeasureDecision.BLOCK
        return CountermeasureDecision.ALLOW


class TestBlockReaction:
    def test_detection_lag_delays_reaction(self, world):
        """Hublaagram needs ~3 weeks to ship like-block detection."""
        platform, fabric, service, accounts = world
        platform.countermeasures.add_policy(_BlockLikesFrom(service.current_asns()))
        requester = accounts[0]
        service.request_free_service(requester.account_id, ActionType.LIKE)
        run_hours(platform, service, 12)
        # blocks observed, but the detector is not yet operational
        assert service.detector.total_blocks_observed > 0
        assert not service.detector.operational(ActionType.LIKE, platform.clock.now)
        assert requester.account_id not in service._recipient_caps

    def test_caps_installed_after_lag(self, world):
        platform, fabric, service, accounts = world
        platform.countermeasures.add_policy(_BlockLikesFrom(service.current_asns()))
        requester = accounts[0]
        service.request_free_service(requester.account_id, ActionType.LIKE)
        run_hours(platform, service, 6)
        # jump past the deployment lag, then trigger more blocks
        platform.clock.advance(days(22))
        service.request_free_service(requester.account_id, ActionType.LIKE)
        run_hours(platform, service, 6)
        assert service.detector.operational(ActionType.LIKE, platform.clock.now)
        assert requester.account_id in service._recipient_caps


class TestFollowersgratis:
    def test_free_likes_not_offered(self):
        platform = InstagramPlatform()
        fabric = NetworkFabric(ASNRegistry(), derive_rng(62, "f"))
        service = make_followersgratis(platform, fabric, derive_rng(62, "s"))
        account = platform.create_account("m", "pw")
        service.register_customer("m", "pw", {ActionType.FOLLOW}, trial_ticks=days(2))
        with pytest.raises(ValueError):
            service.request_free_service(account.account_id, ActionType.LIKE)

    def test_tiny_exit_pool(self):
        platform = InstagramPlatform()
        fabric = NetworkFabric(ASNRegistry(), derive_rng(63, "f"))
        service = make_followersgratis(platform, fabric, derive_rng(63, "s"))
        addresses = {service.next_endpoint().address for _ in range(10)}
        assert len(addresses) == 2  # the small IP pool that got it pre-policed
