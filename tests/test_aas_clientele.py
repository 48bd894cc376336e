"""Tests for the clientele (customer-population) driver."""

import pytest

from repro.aas.clientele import ClienteleDriver, ClienteleParams
from repro.aas.services import make_boostgram, make_hublaagram
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.util import derive_rng


@pytest.fixture
def world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(71, "f"))
    config = PopulationConfig(size=200, out_degree=DegreeDistribution(median=8.0))
    population = OrganicPopulation.generate(platform, fabric, derive_rng(71, "p"), config)
    return platform, fabric, population


class TestSeeding:
    def test_seed_creates_initial_stock(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(71, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(71, "c"),
            ClienteleParams(initial_customers=30, initial_long_term_fraction=0.5),
        )
        created = driver.seed_initial()
        assert created == 30
        assert len(service.customers) == 30

    def test_long_term_seeds_have_history(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(72, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(72, "c"),
            ClienteleParams(initial_customers=40, initial_long_term_fraction=1.0),
        )
        driver.seed_initial()
        now = platform.clock.now
        paying = [r for r in service.customers.values() if r.is_paid(now)]
        assert len(paying) == 40
        # ledger carries backdated payments (for Table 10's preexisting split)
        assert all(service.ledger.first_payment_tick(r.account_id) < 0 for r in paying)

    def test_short_term_seeds_in_trial(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(73, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(73, "c"),
            ClienteleParams(initial_customers=20, initial_long_term_fraction=0.0),
        )
        driver.seed_initial()
        now = platform.clock.now
        assert all(not r.is_paid(now) for r in service.customers.values())


class TestReciprocityLifecycle:
    def test_converting_customers_pay_at_trial_end(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(74, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(74, "c"),
            ClienteleParams(
                initial_customers=30,
                initial_long_term_fraction=0.0,
                daily_new_customers=0.0,
                conversion_rate=1.0,
            ),
        )
        driver.seed_initial()
        for _ in range(service.config.pricing.trial_ticks + 48):
            driver.tick()
            platform.clock.advance(1)
        assert len({p.customer for p in service.ledger}) >= 25  # nearly all converted

    def test_zero_conversion_never_pays(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(75, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(75, "c"),
            ClienteleParams(
                initial_customers=20,
                initial_long_term_fraction=0.0,
                daily_new_customers=0.0,
                conversion_rate=0.0,
            ),
        )
        driver.seed_initial()
        for _ in range(service.config.pricing.trial_ticks + 48):
            driver.tick()
            platform.clock.advance(1)
        assert len(service.ledger) == 0

    def test_births_enroll_new_customers(self, world):
        platform, fabric, population = world
        service = make_boostgram(platform, fabric, derive_rng(76, "s"), population.account_ids)
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(76, "c"),
            ClienteleParams(initial_customers=0, daily_new_customers=24.0),
        )
        for _ in range(48):
            driver.tick()
            platform.clock.advance(1)
        assert len(service.customers) > 20


class TestCollusionLifecycle:
    def test_free_users_request_service(self, world):
        platform, fabric, population = world
        service = make_hublaagram(platform, fabric, derive_rng(77, "s"))
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(77, "c"),
            ClienteleParams(
                initial_customers=40,
                daily_new_customers=0.0,
                free_request_rate_per_day=12.0,
                no_outbound_fraction=0.0,
                monthly_plan_fraction=0.0,
                one_time_package_fraction=0.0,
            ),
        )
        driver.seed_initial()
        for _ in range(48):
            driver.tick()
            service.tick()
            platform.clock.advance(1)
        inbound_total = sum(
            len(platform.log.inbound(a)) for a in list(service.customers)[:20]
        )
        assert inbound_total > 0

    def test_purchase_fractions_generate_revenue(self, world):
        platform, fabric, population = world
        service = make_hublaagram(platform, fabric, derive_rng(78, "s"))
        driver = ClienteleDriver(
            service,
            population,
            derive_rng(78, "c"),
            ClienteleParams(
                initial_customers=60,
                daily_new_customers=0.0,
                no_outbound_fraction=0.3,
                monthly_plan_fraction=0.3,
            ),
        )
        driver.seed_initial()
        items = {p.item for p in service.ledger}
        assert any(k == "no-outbound-fee" for k in items)
        assert any(k.startswith("monthly-") for k in items)
        assert len(service.no_outbound) > 5


class TestParams:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ClienteleParams(conversion_rate=1.5)
        with pytest.raises(ValueError):
            ClienteleParams(initial_customers=-1)
