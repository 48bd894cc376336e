"""Tests for the reciprocity-abuse engine."""

import pytest

from repro.aas.base import IssueOutcome
from repro.aas.services import make_boostgram, make_instalex
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionStatus, ActionType
from repro.util import derive_rng
from repro.util.timeutils import days


@pytest.fixture
def world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(51, "f"))
    config = PopulationConfig(size=250, out_degree=DegreeDistribution(median=10.0, sigma=0.9))
    population = OrganicPopulation.generate(platform, fabric, derive_rng(51, "p"), config)
    service = make_boostgram(platform, fabric, derive_rng(51, "svc"), population.account_ids)
    customer = platform.create_account("cust", "pw")
    for _ in range(5):
        platform.media.create(customer.account_id, 0)
    return platform, fabric, population, service, customer


def run_hours(platform, service, hours):
    for _ in range(hours):
        service.tick()
        platform.clock.advance(1)


class TestAutomation:
    def test_trial_customer_gets_automation(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer(
            "cust", "pw", {ActionType.LIKE, ActionType.FOLLOW}, trial_ticks=days(3)
        )
        run_hours(platform, service, 48)
        outbound = platform.log.by_actor(customer.account_id)
        likes = [r for r in outbound if r.action_type is ActionType.LIKE]
        follows = [r for r in outbound if r.action_type is ActionType.FOLLOW]
        assert len(likes) > 30  # ~100/day budget
        assert len(follows) > 10  # ~30/day budget

    def test_only_requested_actions_performed(self, world):
        """Section 4.2: "The services all perform as advertised"."""
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(3))
        run_hours(platform, service, 48)
        types = {r.action_type for r in platform.log.by_actor(customer.account_id)}
        assert types <= {ActionType.LIKE}

    def test_automation_stops_after_trial(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(1))
        run_hours(platform, service, 24)
        count_at_trial_end = len(platform.log.by_actor(customer.account_id))
        run_hours(platform, service, 24)
        assert len(platform.log.by_actor(customer.account_id)) == count_at_trial_end

    def test_payment_extends_service(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(1))
        service.purchase_period(customer.account_id)
        assert service.ledger.total_cents() == 9900  # Boostgram $99
        run_hours(platform, service, 48)
        record = service.customers[customer.account_id]
        assert record.is_paid(platform.clock.now)
        assert record.service_active(platform.clock.now)

    def test_targets_never_repeat_per_customer(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(3))
        run_hours(platform, service, 48)
        follows = [
            r.target_account
            for r in platform.log.by_actor(customer.account_id)
            if r.action_type is ActionType.FOLLOW and r.status is ActionStatus.DELIVERED
        ]
        assert len(follows) == len(set(follows))

    def test_actions_originate_from_service_asns(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(2))
        run_hours(platform, service, 24)
        for record in platform.log.by_actor(customer.account_id):
            assert record.endpoint.asn in service.current_asns()


class TestUnfollow:
    def test_auto_unfollow_after_delay(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer(
            "cust", "pw", {ActionType.FOLLOW, ActionType.UNFOLLOW}, trial_ticks=days(6)
        )
        run_hours(platform, service, days(5))
        outbound = platform.log.by_actor(customer.account_id)
        follows = sum(1 for r in outbound if r.action_type is ActionType.FOLLOW)
        unfollows = sum(1 for r in outbound if r.action_type is ActionType.UNFOLLOW)
        assert unfollows > 0
        assert unfollows <= follows
        # follows older than the unfollow delay got withdrawn
        assert unfollows >= follows * 0.3

    def test_no_unfollow_when_not_requested(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(6))
        run_hours(platform, service, days(5))
        outbound = platform.log.by_actor(customer.account_id)
        assert not any(r.action_type is ActionType.UNFOLLOW for r in outbound)


class _BlockEverything:
    """Countermeasure blocking every follow from given ASNs."""

    def __init__(self, asns):
        self.asns = asns

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        if context.action_type is ActionType.FOLLOW and context.endpoint.asn in self.asns:
            return CountermeasureDecision.BLOCK
        return CountermeasureDecision.ALLOW


class TestBlockReaction:
    def test_per_account_backoff(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(10))
        platform.countermeasures.add_policy(_BlockEverything(service.current_asns()))
        run_hours(platform, service, days(3))
        throttle = service.throttle_for(customer.account_id, ActionType.FOLLOW)
        assert throttle.suppressed
        assert throttle.level < throttle.base_level

    def test_unblocked_account_unaffected(self, world):
        platform, fabric, population, service, customer = world
        other = platform.create_account("other", "pw")
        service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(10))
        service.register_customer("other", "pw", {ActionType.FOLLOW}, trial_ticks=days(10))

        class _BlockOnlyCust(_BlockEverything):
            def decide(self, context):
                if context.actor != customer.account_id:
                    return CountermeasureDecision.ALLOW
                return super().decide(context)

        platform.countermeasures.add_policy(_BlockOnlyCust(service.current_asns()))
        run_hours(platform, service, days(3))
        blocked = service.throttle_for(customer.account_id, ActionType.FOLLOW)
        control = service.throttle_for(other.account_id, ActionType.FOLLOW)
        assert blocked.suppressed
        assert not control.suppressed
        assert control.level == control.base_level

    def test_blocked_attempts_logged(self, world):
        platform, fabric, population, service, customer = world
        service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(2))
        platform.countermeasures.add_policy(_BlockEverything(service.current_asns()))
        run_hours(platform, service, 24)
        blocked = [
            r
            for r in platform.log.by_actor(customer.account_id)
            if r.status is ActionStatus.BLOCKED
        ]
        assert blocked
        assert service.outcome_counts[IssueOutcome.BLOCKED] == len(blocked)


class TestInstalexComments:
    def test_comment_service(self):
        platform = InstagramPlatform()
        fabric = NetworkFabric(ASNRegistry(), derive_rng(52, "f"))
        config = PopulationConfig(size=150, out_degree=DegreeDistribution(median=8.0))
        population = OrganicPopulation.generate(platform, fabric, derive_rng(52, "p"), config)
        service = make_instalex(platform, fabric, derive_rng(52, "s"), population.account_ids)
        customer = platform.create_account("cust", "pw")
        service.register_customer("cust", "pw", {ActionType.COMMENT}, trial_ticks=days(4))
        for _ in range(72):
            service.tick()
            platform.clock.advance(1)
        comments = [
            r
            for r in platform.log.by_actor(customer.account_id)
            if r.action_type is ActionType.COMMENT
        ]
        assert comments
        assert all(r.comment_text for r in comments)
