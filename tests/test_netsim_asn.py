"""Tests for repro.netsim.asn."""

import pytest

from repro.netsim.asn import ASKind, ASNRegistry, AutonomousSystem
from repro.netsim.ipspace import Prefix


def make_as(asn=64512, country="usa"):
    return AutonomousSystem(
        asn=asn, name="t", country=country, kind=ASKind.HOSTING, prefixes=[Prefix(0x0A000000, 24)]
    )


class TestAutonomousSystem:
    def test_country_uppercased(self):
        assert make_as().country == "USA"

    def test_nonpositive_asn_rejected(self):
        with pytest.raises(ValueError):
            AutonomousSystem(asn=0, name="x", country="US", kind=ASKind.MOBILE)


class TestASNRegistry:
    def test_register_and_get(self):
        registry = ASNRegistry()
        autonomous_system = make_as()
        registry.register(autonomous_system)
        assert registry.get(autonomous_system.asn) is autonomous_system
        assert autonomous_system.asn in registry
        assert len(registry) == 1

    def test_duplicate_asn_rejected(self):
        registry = ASNRegistry()
        registry.register(make_as())
        with pytest.raises(ValueError):
            registry.register(
                AutonomousSystem(
                    asn=64512,
                    name="dup",
                    country="US",
                    kind=ASKind.MOBILE,
                    prefixes=[Prefix(0x0B000000, 24)],
                )
            )

    def test_create_autoassigns_distinct_asns(self):
        registry = ASNRegistry()
        a = registry.create("a", "USA", ASKind.RESIDENTIAL, [Prefix(0x0A000000, 24)])
        b = registry.create("b", "GBR", ASKind.HOSTING, [Prefix(0x0B000000, 24)])
        assert a.asn != b.asn

    def test_allocate_and_reverse_lookup(self):
        registry = ASNRegistry()
        a = registry.create("a", "USA", ASKind.RESIDENTIAL, [Prefix(0x0A000000, 24)])
        address = registry.allocate_address(a.asn)
        assert registry.asn_of(address) == a.asn
        assert registry.country_of_asn(a.asn) == "USA"

    def test_allocate_spills_to_second_prefix(self):
        registry = ASNRegistry()
        a = registry.create(
            "a", "USA", ASKind.HOSTING, [Prefix(0x0A000000, 31), Prefix(0x0B000000, 24)]
        )
        for _ in range(3):
            registry.allocate_address(a.asn)
        third = registry.allocate_address(a.asn)
        assert Prefix(0x0B000000, 24).contains(third)

    def test_exhaustion_raises(self):
        registry = ASNRegistry()
        a = registry.create("a", "USA", ASKind.HOSTING, [Prefix(0x0A000000, 32)])
        registry.allocate_address(a.asn)
        with pytest.raises(RuntimeError):
            registry.allocate_address(a.asn)

    def test_unknown_asn_raises(self):
        registry = ASNRegistry()
        with pytest.raises(KeyError):
            registry.get(99)
        with pytest.raises(KeyError):
            registry.asn_of(0x0A000001)
