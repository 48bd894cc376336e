"""Client endpoints: where a platform request comes from.

Every request carries a :class:`ClientEndpoint` (source address + device
fingerprint). The fingerprint distinguishes official mobile clients,
the public OAuth API, and AAS automation stacks spoofing the private
mobile API (Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.ipspace import format_ipv4


@dataclass(frozen=True)
class DeviceFingerprint:
    """A coarse client identity: family plus a per-installation token.

    ``family`` examples: ``"android"``, ``"ios"``, ``"web-oauth"``, or an
    automation stack's spoofed identity (which claims a mobile family but
    is distinguishable by low-level signals captured in ``variant``).
    """

    family: str
    variant: str = "stock"


@dataclass(frozen=True)
class ClientEndpoint:
    """The network origin of a request."""

    address: int
    asn: int
    fingerprint: DeviceFingerprint

    def __str__(self) -> str:
        return f"{format_ipv4(self.address)} (AS{self.asn}, {self.fingerprint.family}/{self.fingerprint.variant})"
