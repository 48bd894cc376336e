"""Per-country network fabric.

Builds a world of residential/mobile/hosting ASes across the scenario's
countries and hands out client endpoints, so that every simulated user
logs in from a plausible home network and every AAS runs out of hosting
ASes in its operating country (paper Table 7).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.netsim.asn import ASKind, ASNRegistry, AutonomousSystem
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.netsim.ipspace import Prefix

#: Carve per-AS /16 prefixes out of this base (distinct from the proxy pool's 11/8).
_FABRIC_SPACE_BASE = 0x0C000000  # 12.0.0.0/8 onward


class NetworkFabric:
    """Factory for country-tagged ASes and client endpoints."""

    def __init__(self, registry: ASNRegistry, rng: np.random.Generator):
        self.registry = registry
        self._rng = rng
        self._by_country_kind: dict[tuple[str, ASKind], list[AutonomousSystem]] = defaultdict(list)
        self._next_slot = 0

    def _fresh_prefix(self) -> Prefix:
        base = _FABRIC_SPACE_BASE + (self._next_slot << 16)
        self._next_slot += 1
        if base > 0xDF000000:
            raise RuntimeError("fabric address space exhausted")
        return Prefix(base=base, length=16)

    def add_as(self, country: str, kind: ASKind, name: str = "") -> AutonomousSystem:
        """Create one AS of ``kind`` in ``country`` with a fresh /16."""
        country = country.upper()
        label = name or f"{country.lower()}-{kind.value}-{len(self._by_country_kind[(country, kind)])}"
        autonomous_system = self.registry.create(
            name=label, country=country, kind=kind, prefixes=[self._fresh_prefix()]
        )
        self._by_country_kind[(country, kind)].append(autonomous_system)
        return autonomous_system

    def ensure_country(
        self, country: str, residential: int = 2, mobile: int = 1
    ) -> None:
        """Guarantee the country has at least the given AS counts."""
        country = country.upper()
        while len(self._by_country_kind[(country, ASKind.RESIDENTIAL)]) < residential:
            self.add_as(country, ASKind.RESIDENTIAL)
        while len(self._by_country_kind[(country, ASKind.MOBILE)]) < mobile:
            self.add_as(country, ASKind.MOBILE)

    def home_endpoint(self, country: str, fingerprint: DeviceFingerprint) -> ClientEndpoint:
        """Allocate a fresh consumer endpoint (residential or mobile) in ``country``."""
        country = country.upper()
        candidates = (
            self._by_country_kind[(country, ASKind.RESIDENTIAL)]
            + self._by_country_kind[(country, ASKind.MOBILE)]
        )
        if not candidates:
            raise KeyError(f"no consumer ASes in {country}; call ensure_country first")
        autonomous_system = candidates[int(self._rng.integers(0, len(candidates)))]
        address = self.registry.allocate_address(autonomous_system.asn)
        return ClientEndpoint(address, autonomous_system.asn, fingerprint)

    def hosting_endpoint(
        self, country: str, fingerprint: DeviceFingerprint, name: str = ""
    ) -> ClientEndpoint:
        """Allocate an endpoint in a hosting AS (creating the AS if needed).

        With ``name``, the endpoint comes from the AS of that name
        (find-or-create) so each service gets dedicated exit ASNs; without
        it, the country's first hosting AS is used.
        """
        country = country.upper()
        hosting = self._by_country_kind[(country, ASKind.HOSTING)]
        autonomous_system = None
        if name:
            for candidate in hosting:
                if candidate.name == name:
                    autonomous_system = candidate
                    break
        elif hosting:
            autonomous_system = hosting[0]
        if autonomous_system is None:
            autonomous_system = self.add_as(country, ASKind.HOSTING, name=name)
        address = self.registry.allocate_address(autonomous_system.asn)
        return ClientEndpoint(address, autonomous_system.asn, fingerprint)
