"""Autonomous-system registry.

ASNs are the pivot of the paper's interventions: eligibility thresholds
are computed per ASN, and services evade blocks by migrating to new ASNs
(Section 6.4). Each synthetic AS owns one or more IPv4 prefixes, has a
country, and is classified as residential, hosting, or mobile — hosting
ASes are where AAS automation traffic concentrates, while residential
and mobile ASes carry the benign logins blended into "mixed" ASNs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.netsim.ipspace import IPAddressSpace, Prefix


class ASKind(enum.Enum):
    """Coarse AS classification used by threshold selection (Section 6.2)."""

    RESIDENTIAL = "residential"
    HOSTING = "hosting"
    MOBILE = "mobile"


@dataclass
class AutonomousSystem:
    """One autonomous system with its prefixes and metadata."""

    asn: int
    name: str
    country: str
    kind: ASKind
    prefixes: list[Prefix] = field(default_factory=list)

    def __post_init__(self):
        if self.asn <= 0:
            raise ValueError("ASN must be positive")
        self.country = self.country.upper()


class ASNRegistry:
    """Registry mapping ASNs to metadata and addresses to ASNs.

    The registry owns a shared :class:`IPAddressSpace`, so every
    allocated address is attributable to exactly one AS.
    """

    def __init__(self):
        self._by_asn: dict[int, AutonomousSystem] = {}
        self.space = IPAddressSpace()
        self._next_private_asn = 64512  # RFC 6996 private-use range

    def register(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        """Register an AS and all of its prefixes."""
        if autonomous_system.asn in self._by_asn:
            raise ValueError(f"ASN {autonomous_system.asn} already registered")
        for prefix in autonomous_system.prefixes:
            self.space.add_prefix(prefix)
        self._by_asn[autonomous_system.asn] = autonomous_system
        return autonomous_system

    def create(self, name: str, country: str, kind: ASKind, prefixes: list[Prefix]) -> AutonomousSystem:
        """Create and register an AS with an auto-assigned ASN."""
        asn = self._next_private_asn
        self._next_private_asn += 1
        return self.register(AutonomousSystem(asn=asn, name=name, country=country, kind=kind, prefixes=prefixes))

    def get(self, asn: int) -> AutonomousSystem:
        if asn not in self._by_asn:
            raise KeyError(f"unknown ASN {asn}")
        return self._by_asn[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)

    def allocate_address(self, asn: int) -> int:
        """Allocate a fresh address from the AS's first non-full prefix."""
        autonomous_system = self.get(asn)
        last_error: Exception | None = None
        for prefix in autonomous_system.prefixes:
            try:
                return self.space.allocate(prefix)
            except RuntimeError as exc:
                last_error = exc
        raise RuntimeError(f"AS{asn} has no free addresses") from last_error

    def asn_of(self, addr: int) -> int:
        """Map an address back to its owning ASN."""
        prefix = self.space.owner_prefix(addr)
        for autonomous_system in self._by_asn.values():
            if prefix in autonomous_system.prefixes:
                return autonomous_system.asn
        raise KeyError(f"no AS owns prefix {prefix}")

    def country_of_asn(self, asn: int) -> str:
        return self.get(asn).country
