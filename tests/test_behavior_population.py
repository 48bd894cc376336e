"""Tests for organic population synthesis."""

import numpy as np
import pytest

from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.behavior.profiles import account_attractiveness
from repro.platform import InstagramPlatform
from repro.netsim import ASNRegistry, NetworkFabric
from repro.util import derive_rng


@pytest.fixture(scope="module")
def world():
    platform = InstagramPlatform()
    registry = ASNRegistry()
    fabric = NetworkFabric(registry, derive_rng(11, "fabric"))
    config = PopulationConfig(size=400, out_degree=DegreeDistribution(median=15.0, sigma=1.0))
    population = OrganicPopulation.generate(platform, fabric, derive_rng(11, "pop"), config)
    return platform, registry, population, config


class TestGeneration:
    def test_size(self, world):
        _, _, population, config = world
        assert len(population) == config.size

    def test_every_account_exists_with_media(self, world):
        platform, _, population, _ = world
        for account_id in population.account_ids[:50]:
            assert platform.account_exists(account_id)
            assert len(platform.media.media_of(account_id)) >= 5

    def test_graph_degrees_near_config(self, world):
        _, _, population, config = world
        assert 10 <= population.median_out_degree <= 22

    def test_in_degree_heavy_tailed(self, world):
        platform, _, population, _ = world
        in_degrees = [platform.follower_count(a) for a in population.account_ids]
        assert np.mean(in_degrees) > np.median(in_degrees)

    def test_edge_conservation(self, world):
        platform, _, population, _ = world
        out_sum = sum(platform.following_count(a) for a in population.account_ids)
        in_sum = sum(platform.follower_count(a) for a in population.account_ids)
        assert out_sum == in_sum == platform.graph.edge_count

    def test_profiles_complete(self, world):
        _, _, population, _ = world
        for profile in list(population.profiles.values())[:50]:
            assert 0 < profile.check_rate <= 0.25
            assert profile.propensity > 0
            assert profile.background_rate >= 0.5

    def test_countries_assigned_from_config(self, world):
        _, registry, population, config = world
        countries = {p.country for p in population.profiles.values()}
        assert countries <= set(config.country_weights)
        assert len(countries) > 3

    def test_endpoints_geolocate_to_home_country(self, world):
        _, registry, population, _ = world
        for profile in list(population.profiles.values())[:30]:
            assert registry.country_of_asn(profile.endpoint.asn) == profile.country

    def test_logins_recorded(self, world):
        platform, _, population, _ = world
        account = population.account_ids[0]
        assert len(platform.auth.login_endpoints(account)) >= 1

    def test_affinity_minority(self, world):
        _, _, population, config = world
        strong = [p for p in population.profiles.values() if p.follow_on_like_affinity > 1]
        fraction = len(strong) / len(population)
        assert 0.02 <= fraction <= 0.16

    def test_propensity_anchored_at_medians(self, world):
        _, _, population, _ = world
        values = [p.propensity for p in population.profiles.values()]
        assert 0.7 <= float(np.median(values)) <= 1.3

    def test_sample_accounts(self, world):
        _, _, population, _ = world
        sample = population.sample_accounts(derive_rng(1, "s"), 10)
        assert len(set(sample)) == 10
        with pytest.raises(ValueError):
            population.sample_accounts(derive_rng(1, "s"), len(population) + 1)

    def test_determinism(self):
        def build():
            platform = InstagramPlatform()
            fabric = NetworkFabric(ASNRegistry(), derive_rng(5, "f"))
            config = PopulationConfig(size=100, out_degree=DegreeDistribution(median=8.0))
            population = OrganicPopulation.generate(platform, fabric, derive_rng(5, "p"), config)
            return platform.graph.edge_count, population.median_in_degree

        assert build() == build()

    def test_ids_form_one_block(self, world):
        platform, _, population, _ = world
        ids = population.account_ids
        assert ids == list(range(ids[0], ids[-1] + 1))
        gapped = {a: p for a, p in population.profiles.items() if a != ids[1]}
        with pytest.raises(ValueError, match="contiguous"):
            OrganicPopulation(platform, gapped)


class TestPopulationConfig:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=10, country_weights={"USA": 0.5})

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            PopulationConfig(size=1)


class TestAttractiveness:
    def test_scale(self, world):
        platform, _, population, _ = world
        account = population.account_ids[0]
        score = account_attractiveness(platform, account)
        assert 0.0 <= score <= 1.0

    def test_organic_users_look_lived_in(self, world):
        platform, _, population, _ = world
        scores = [account_attractiveness(platform, a) for a in population.account_ids[:30]]
        assert np.mean(scores) > 0.5
