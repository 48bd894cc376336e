"""Tests for the five service factories' published facts (Tables 1, 7)."""

from repro.aas.base import ServiceType
from repro.aas.services.boostgram import BOOSTGRAM_DESCRIPTOR
from repro.aas.services.followersgratis import FOLLOWERSGRATIS_DESCRIPTOR
from repro.aas.services.hublaagram import HUBLAAGRAM_DESCRIPTOR
from repro.aas.services.instalex import INSTALEX_DESCRIPTOR
from repro.aas.services.instazood import INSTAZOOD_DESCRIPTOR
from repro.platform.models import ActionType

ALL = [
    INSTALEX_DESCRIPTOR,
    INSTAZOOD_DESCRIPTOR,
    BOOSTGRAM_DESCRIPTOR,
    HUBLAAGRAM_DESCRIPTOR,
    FOLLOWERSGRATIS_DESCRIPTOR,
]


class TestTable1Matrix:
    def test_all_offer_likes_and_follows(self):
        """Paper: "All offer like and follow services"."""
        for descriptor in ALL:
            assert ActionType.LIKE in descriptor.offered_actions
            assert ActionType.FOLLOW in descriptor.offered_actions

    def test_sixty_percent_offer_comments(self):
        with_comments = [d for d in ALL if ActionType.COMMENT in d.offered_actions]
        assert len(with_comments) == 3  # 60% of 5

    def test_forty_percent_offer_posts(self):
        with_posts = [d for d in ALL if ActionType.POST in d.offered_actions]
        assert len(with_posts) == 2  # 40% of 5

    def test_all_reciprocity_services_offer_unfollow(self):
        for descriptor in (INSTALEX_DESCRIPTOR, INSTAZOOD_DESCRIPTOR, BOOSTGRAM_DESCRIPTOR):
            assert ActionType.UNFOLLOW in descriptor.offered_actions

    def test_collusion_networks_do_not_unfollow(self):
        for descriptor in (HUBLAAGRAM_DESCRIPTOR, FOLLOWERSGRATIS_DESCRIPTOR):
            assert ActionType.UNFOLLOW not in descriptor.offered_actions

    def test_service_types(self):
        assert INSTALEX_DESCRIPTOR.service_type is ServiceType.RECIPROCITY_ABUSE
        assert INSTAZOOD_DESCRIPTOR.service_type is ServiceType.RECIPROCITY_ABUSE
        assert BOOSTGRAM_DESCRIPTOR.service_type is ServiceType.RECIPROCITY_ABUSE
        assert HUBLAAGRAM_DESCRIPTOR.service_type is ServiceType.COLLUSION_NETWORK
        assert FOLLOWERSGRATIS_DESCRIPTOR.service_type is ServiceType.COLLUSION_NETWORK

    def test_instazood_offers_everything(self):
        assert len(INSTAZOOD_DESCRIPTOR.offered_actions) == 5


class TestTable7Geography:
    def test_operating_countries(self):
        assert INSTALEX_DESCRIPTOR.operating_country == "RUS"
        assert INSTAZOOD_DESCRIPTOR.operating_country == "RUS"
        assert BOOSTGRAM_DESCRIPTOR.operating_country == "USA"
        assert HUBLAAGRAM_DESCRIPTOR.operating_country == "IDN"
        assert FOLLOWERSGRATIS_DESCRIPTOR.operating_country == "IDN"

    def test_asn_locations(self):
        assert INSTALEX_DESCRIPTOR.asn_countries == ("USA",)
        assert BOOSTGRAM_DESCRIPTOR.asn_countries == ("USA",)
        assert set(HUBLAAGRAM_DESCRIPTOR.asn_countries) == {"GBR", "USA"}


class TestFranchiseStructure:
    def test_insta_star_shares_stack(self):
        """Instalex and Instazood are franchises of one parent — their
        automation is indistinguishable (why the paper merges them)."""
        assert INSTALEX_DESCRIPTOR.stack_variant == INSTAZOOD_DESCRIPTOR.stack_variant != ""

    def test_other_services_have_own_stacks(self):
        assert BOOSTGRAM_DESCRIPTOR.stack_variant == ""
        assert HUBLAAGRAM_DESCRIPTOR.stack_variant == ""

    def test_followersgratis_has_small_pool(self):
        assert FOLLOWERSGRATIS_DESCRIPTOR.endpoints_per_asn == 2
        assert HUBLAAGRAM_DESCRIPTOR.endpoints_per_asn > FOLLOWERSGRATIS_DESCRIPTOR.endpoints_per_asn
