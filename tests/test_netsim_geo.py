"""Tests for repro.netsim.geo."""

import pytest

from repro.netsim.asn import ASKind, ASNRegistry
from repro.netsim.geo import GeoIP, LoginGeolocator
from repro.netsim.ipspace import Prefix


@pytest.fixture
def world():
    registry = ASNRegistry()
    usa = registry.create("usa-res", "USA", ASKind.RESIDENTIAL, [Prefix(0x0A000000, 24)])
    idn = registry.create("idn-res", "IDN", ASKind.RESIDENTIAL, [Prefix(0x0B000000, 24)])
    return registry, usa, idn


class TestGeoIP:
    def test_country_per_asn(self, world):
        registry, usa, idn = world
        geoip = GeoIP(registry)
        assert geoip.country(registry.allocate_address(idn.asn)) == "IDN"

    def test_unknown_address_raises(self, world):
        registry, *_ = world
        geoip = GeoIP(registry)
        with pytest.raises(KeyError):
            geoip.country(0x01020304)


class TestLoginGeolocator:
    def test_most_frequent_wins(self, world):
        registry, usa, idn = world
        locator = LoginGeolocator(GeoIP(registry))
        logins = [registry.allocate_address(usa.asn) for _ in range(3)]
        logins.append(registry.allocate_address(idn.asn))
        assert locator.account_country(logins) == "USA"

    def test_tie_breaks_deterministically(self, world):
        registry, usa, idn = world
        locator = LoginGeolocator(GeoIP(registry))
        logins = [registry.allocate_address(usa.asn), registry.allocate_address(idn.asn)]
        assert locator.account_country(logins) == "IDN"  # lexicographic tie-break

    def test_no_logins_raises(self, world):
        registry, *_ = world
        locator = LoginGeolocator(GeoIP(registry))
        with pytest.raises(ValueError):
            locator.account_country([])
