"""IP geolocation, standing in for "Instagram's IP geolocation system".

The paper defines an account's location as the most frequent login
country (Section 5.1). :class:`GeoIP` resolves addresses to country and
ASN; :class:`LoginGeolocator` implements the most-frequent-country rule
over an account's login history.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.netsim.asn import ASNRegistry


class GeoIP:
    """Resolves integer IPv4 addresses to (country, asn)."""

    def __init__(self, registry: ASNRegistry):
        self._registry = registry

    def asn(self, addr: int) -> int:
        return self._registry.asn_of(addr)

    def country(self, addr: int) -> str:
        return self._registry.country_of_asn(self.asn(addr))


class LoginGeolocator:
    """Account location = most frequent login country (paper Section 5.1).

    Ties break lexicographically so the rule is deterministic.
    """

    def __init__(self, geoip: GeoIP):
        self._geoip = geoip

    def account_country(self, login_addresses: Iterable[int]) -> str:
        counts = Counter(self._geoip.country(addr) for addr in login_addresses)
        if not counts:
            raise ValueError("account has no logins to geolocate")
        top_count = max(counts.values())
        candidates = sorted(country for country, n in counts.items() if n == top_count)
        return candidates[0]
