"""Tests for the Insta* franchise program."""

import pytest

from repro.aas.franchise import FRANCHISE_TIERS, FranchiseProgram, FranchiseTier
from repro.aas.pricing import INSTALEX_PRICING, INSTAZOOD_PRICING
from repro.aas.base import ServiceType
from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.detection.signals import learn_signature
from repro.detection.classifier import AASClassifier
from repro.netsim import ASNRegistry, NetworkFabric
from repro.platform import InstagramPlatform
from repro.platform.models import ActionType
from repro.util import derive_rng
from repro.util.timeutils import days


@pytest.fixture(scope="module")
def program_world():
    platform = InstagramPlatform()
    fabric = NetworkFabric(ASNRegistry(), derive_rng(141, "f"))
    config = PopulationConfig(size=250, out_degree=DegreeDistribution(median=10.0))
    population = OrganicPopulation.generate(platform, fabric, derive_rng(141, "p"), config)
    program = FranchiseProgram(platform, fabric, derive_rng(141, "fr"))
    instalex = program.launch_franchise(
        "Instalex-F", "RUS", population.account_ids, FRANCHISE_TIERS[1], INSTALEX_PRICING
    )
    instazood = program.launch_franchise(
        "Instazood-F", "RUS", population.account_ids, FRANCHISE_TIERS[0], INSTAZOOD_PRICING
    )
    return platform, population, program, instalex, instazood


class TestFranchiseTiers:
    def test_advertised_fee_range(self):
        """Paper: franchising from $1,990 to $30,990 per month."""
        fees = [t.monthly_fee_cents for t in FRANCHISE_TIERS]
        assert min(fees) == 199_000
        assert max(fees) == 3_099_000

    def test_invalid_fee_rejected(self):
        with pytest.raises(ValueError):
            FranchiseTier("bad", 0)


class TestFranchiseProgram:
    def test_franchises_share_stack_and_infrastructure(self, program_world):
        platform, population, program, instalex, instazood = program_world
        assert instalex.fingerprint.variant == instazood.fingerprint.variant
        assert instalex.current_asns() == instazood.current_asns()

    def test_franchises_operate_independently(self, program_world):
        platform, population, program, instalex, instazood = program_world
        assert instalex.ledger is not instazood.ledger
        assert instalex.config.pricing != instazood.config.pricing

    def test_duplicate_name_rejected(self, program_world):
        platform, population, program, *_ = program_world
        with pytest.raises(ValueError):
            program.launch_franchise(
                "Instalex-F", "RUS", population.account_ids, FRANCHISE_TIERS[0], INSTALEX_PRICING
            )

    def test_unknown_tier_rejected(self, program_world):
        platform, population, program, *_ = program_world
        with pytest.raises(ValueError):
            program.launch_franchise(
                "New", "BRA", population.account_ids, FranchiseTier("x", 1), INSTALEX_PRICING
            )

    def test_monthly_fees_collected(self, program_world):
        platform, population, program, *_ = program_world
        before = program.ledger.total_cents()
        collected = program.collect_monthly_fees()
        assert collected == FRANCHISE_TIERS[0].monthly_fee_cents + FRANCHISE_TIERS[1].monthly_fee_cents
        assert program.ledger.total_cents() == before + collected


class TestUndiscoveredFranchise:
    def test_new_franchise_caught_by_existing_signature(self, program_world):
        """The paper's Insta* signature generalizes: a franchise the
        researchers never enrolled honeypots with is still attributed,
        because it runs the parent's stack out of the parent's ASNs."""
        platform, population, program, instalex, instazood = program_world
        # learn a signature from Instalex traffic only
        customer = platform.create_account("flex-cust", "pw")
        for _ in range(3):
            platform.media.create(customer.account_id, 0)
        instalex.register_customer("flex-cust", "pw", {ActionType.LIKE}, trial_ticks=days(2))
        for _ in range(24):
            instalex.tick()
            platform.clock.advance(1)
        known_records = platform.log.by_actor(customer.account_id)
        signature = learn_signature("Insta*", ServiceType.RECIPROCITY_ABUSE, known_records)
        classifier = AASClassifier([signature], platform.log)

        # a brand-new franchise in Brazil the defender never probed
        hidden = program.launch_franchise(
            "InstaBrasil", "BRA", population.account_ids, FRANCHISE_TIERS[0], INSTAZOOD_PRICING
        )
        customer2 = platform.create_account("br-cust", "pw")
        for _ in range(3):
            platform.media.create(customer2.account_id, 0)
        hidden.register_customer("br-cust", "pw", {ActionType.FOLLOW}, trial_ticks=days(2))
        for _ in range(24):
            hidden.tick()
            platform.clock.advance(1)
        hidden_records = platform.log.by_actor(customer2.account_id)
        assert hidden_records
        assert all(classifier.attribute(r) == "Insta*" for r in hidden_records)
