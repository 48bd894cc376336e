"""Tests for the AAS base framework and targeting engine."""

import numpy as np
import pytest

from repro.aas.base import (
    AccountAutomationService,
    IssueOutcome,
    ServiceDescriptor,
    ServiceType,
)
from repro.aas.targeting import CuratedPool, ReciprocityTargeting
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.platform.models import ActionType
from repro.util import derive_rng
from repro.util.timeutils import days


class _NoopService(AccountAutomationService):
    def tick(self):
        pass


def make_descriptor(**overrides):
    defaults = dict(
        name="TestSvc",
        service_type=ServiceType.RECIPROCITY_ABUSE,
        offered_actions=frozenset({ActionType.LIKE, ActionType.FOLLOW}),
        operating_country="USA",
        asn_countries=("USA",),
        endpoints_per_asn=3,
    )
    defaults.update(overrides)
    return ServiceDescriptor(**defaults)


@pytest.fixture
def world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(31, "f"))
    fabric.ensure_country("USA")
    account = platform.create_account("cust", "pw")
    for _ in range(3):
        platform.media.create(account.account_id, 0)
    service = _NoopService(make_descriptor(), platform, fabric, derive_rng(31, "s"))
    return platform, fabric, service, account


class TestServiceDescriptor:
    def test_must_offer_likes_and_follows(self):
        with pytest.raises(ValueError):
            make_descriptor(offered_actions=frozenset({ActionType.LIKE}))

    def test_must_offer_something(self):
        with pytest.raises(ValueError):
            make_descriptor(offered_actions=frozenset())


class TestRegistration:
    def test_register_logs_in_immediately(self, world):
        platform, fabric, service, account = world
        record = service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(7))
        assert record.trial_expires == days(7)
        assert record.service_active(0)
        assert not record.is_paid(0)
        # the enrollment login came from a service exit
        endpoints = platform.auth.login_endpoints(account.account_id)
        assert endpoints[-1].asn in service.current_asns()
        assert endpoints[-1].fingerprint.variant == "aas-testsvc"

    def test_wrong_password_rejected(self, world):
        platform, fabric, service, account = world
        from repro.platform.errors import AuthenticationError

        with pytest.raises(AuthenticationError):
            service.register_customer("cust", "nope", {ActionType.LIKE}, trial_ticks=1)

    def test_unsupported_action_rejected(self, world):
        platform, fabric, service, account = world
        with pytest.raises(ValueError):
            service.register_customer("cust", "pw", {ActionType.POST}, trial_ticks=1)

    def test_double_enrollment_rejected(self, world):
        platform, fabric, service, account = world
        service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=1)
        with pytest.raises(ValueError):
            service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=1)

    def test_backdating(self, world):
        platform, fabric, service, account = world
        record = service.register_customer(
            "cust", "pw", {ActionType.LIKE}, trial_ticks=days(7), backdate_ticks=days(30)
        )
        assert record.enrolled_at == -days(30)
        assert record.trial_expires == -days(23)
        assert not record.service_active(0)  # trial long gone

    def test_cancel(self, world):
        platform, fabric, service, account = world
        record = service.register_customer("cust", "pw", {ActionType.LIKE}, trial_ticks=days(7))
        service.cancel_customer(account.account_id)
        assert not record.service_active(0)


class TestCredentialLifecycle:
    def test_deleted_account_loses_customer(self, world):
        platform, fabric, service, account = world
        other = platform.create_account("other", "pw2")
        record = service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(7))
        platform.delete_account(account.account_id)

        outcome = service._issue(
            record,
            lambda session, endpoint: platform.follow(session, other.account_id, endpoint),
        )
        assert outcome is IssueOutcome.LOST_ACCESS
        assert record.lost_credentials
        assert not record.service_active(0)

    def test_issue_delivers_from_service_endpoint(self, world):
        platform, fabric, service, account = world
        other = platform.create_account("other", "pw2")
        record = service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(7))
        outcome = service._issue(
            record,
            lambda session, endpoint: platform.follow(session, other.account_id, endpoint),
        )
        assert outcome is IssueOutcome.DELIVERED
        last = platform.log.by_actor(account.account_id)[-1]
        assert last.endpoint.asn in service.current_asns()

    def test_invalid_action_counted(self, world):
        platform, fabric, service, account = world
        other = platform.create_account("other", "pw2")
        record = service.register_customer("cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(7))
        call = lambda session, endpoint: platform.follow(session, other.account_id, endpoint)
        assert service._issue(record, call) is IssueOutcome.DELIVERED
        assert service._issue(record, call) is IssueOutcome.INVALID


class TestEndpoints:
    def test_rotation(self, world):
        platform, fabric, service, account = world
        seen = {service.next_endpoint().address for _ in range(6)}
        assert len(seen) == 3  # endpoints_per_asn

    def test_replace_endpoints(self, world):
        platform, fabric, service, account = world
        new = [fabric.hosting_endpoint("USA", service.fingerprint, name="migrated")]
        old_asns = service.current_asns()
        service.replace_endpoints(new)
        assert service.current_asns() != old_asns
        with pytest.raises(ValueError):
            service.replace_endpoints([])


@pytest.fixture(scope="module")
def targeting_world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(41, "f"))
    config = PopulationConfig(size=300, out_degree=DegreeDistribution(median=12.0, sigma=1.0))
    population = OrganicPopulation.generate(platform, fabric, derive_rng(41, "p"), config)
    return platform, population


class TestReciprocityTargeting:
    def test_select_returns_distinct_live_accounts(self, targeting_world):
        platform, population = targeting_world
        targeting = ReciprocityTargeting(
            platform, population.account_ids, derive_rng(41, "t")
        )
        picks = targeting.select(20, exclude=set())
        assert len(picks) == 20
        assert len(set(picks)) == 20

    def test_exclusion_respected(self, targeting_world):
        platform, population = targeting_world
        targeting = ReciprocityTargeting(platform, population.account_ids, derive_rng(42, "t"))
        exclude = set(population.account_ids[:290])
        picks = targeting.select(20, exclude=exclude)
        assert not set(picks) & exclude

    def test_degree_bias(self, targeting_world):
        """Targets have higher out-degree and lower in-degree than the
        population medians (paper Section 5.3)."""
        platform, population = targeting_world
        targeting = ReciprocityTargeting(
            platform,
            population.account_ids,
            derive_rng(43, "t"),
            out_degree_bias=1.5,
            in_degree_bias=1.5,
        )
        picks = [targeting.select(1, exclude=set())[0] for _ in range(300)]
        pick_out = np.median([platform.following_count(a) for a in picks])
        pick_in = np.median([platform.follower_count(a) for a in picks])
        assert pick_out >= population.median_out_degree
        assert pick_in <= population.median_in_degree

    def test_curated_pool_mixing(self, targeting_world):
        platform, population = targeting_world
        curated_accounts = population.account_ids[:5]
        targeting = ReciprocityTargeting(
            platform,
            population.account_ids,
            derive_rng(44, "t"),
            curated=CuratedPool(accounts=list(curated_accounts), mix_fraction=1.0),
        )
        picks = targeting.select(5, exclude=set())
        assert set(picks) <= set(curated_accounts)

    def test_bounded_retries_when_exhausted(self, targeting_world):
        platform, population = targeting_world
        targeting = ReciprocityTargeting(platform, population.account_ids[:3], derive_rng(45, "t"))
        picks = targeting.select(10, exclude=set())
        assert len(picks) <= 3

    def test_validation(self, targeting_world):
        platform, population = targeting_world
        with pytest.raises(ValueError):
            ReciprocityTargeting(platform, [], derive_rng(46, "t"))
        with pytest.raises(ValueError):
            CuratedPool(accounts=[], mix_fraction=0.5)
        with pytest.raises(ValueError):
            CuratedPool(accounts=[1], mix_fraction=1.5)


class _Draws:
    """A stand-in RNG replaying fixed ``random()`` draws."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


class TestSampleScoredPin:
    """``_sample_scored`` bisects a plain list; it must pick exactly what
    ``np.searchsorted`` (side='left', clamped to the last candidate) picks
    on the same floats."""

    @staticmethod
    def _reference(cumulative, candidates, draw):
        index = int(np.searchsorted(np.asarray(cumulative, dtype=float), draw))
        return candidates[min(index, len(candidates) - 1)]

    def test_matches_searchsorted_on_seeded_draws(self, targeting_world):
        platform, population = targeting_world
        targeting = ReciprocityTargeting(
            platform, population.account_ids, derive_rng(47, "t"), in_degree_bias=1.5
        )
        draws = derive_rng(47, "t")  # the same stream, replayed
        for _ in range(3000):
            expected = self._reference(targeting._cumulative, targeting.candidates, draws.random())
            assert targeting._sample_scored() == expected
        assert targeting.rng.bit_generator.state == draws.bit_generator.state

    def test_ties_edges_and_draws_past_the_last_value(self, targeting_world):
        platform, population = targeting_world
        targeting = ReciprocityTargeting(platform, population.account_ids[:4], derive_rng(48, "t"))
        # a repeated value (a zero score) and a total below 1.0, as float
        # rounding can leave it: draws above it must clamp to the last
        targeting._cumulative = [0.25, 0.5, 0.5, 0.9]
        draws = [0.0, 0.25, np.nextafter(0.25, 1.0), 0.5, 0.7, 0.9,
                 np.nextafter(0.9, 1.0), 0.95, 1.0]
        targeting.rng = _Draws(draws)
        picks = [targeting._sample_scored() for _ in draws]
        expected = [self._reference(targeting._cumulative, targeting.candidates, d) for d in draws]
        assert picks == expected
        last = targeting.candidates[-1]
        assert picks[-3:] == [last, last, last]
        assert picks[3] == targeting.candidates[1]  # a tie resolves left
