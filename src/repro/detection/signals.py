"""Service signature learning from honeypot ground truth.

Every action a registered honeypot account emits (reciprocity services)
or receives (collusion networks) was produced by the AAS's automation
stack, so the (ASN, client-variant) pairs observed on those actions form
a signature for the service. The paper notes these signals "accurately
characterize the entire activity of an AAS" per Instagram but cannot be
verified complete — classification is a lower bound, and the classifier
here inherits that property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.aas.base import ServiceType
from repro.platform.columns import ActionView


@dataclass(frozen=True)
class ServiceSignature:
    """Learned network/client fingerprint of one service."""

    service: str
    service_type: ServiceType
    asns: frozenset[int]
    client_variants: frozenset[str]

    def __post_init__(self):
        if not self.asns and not self.client_variants:
            raise ValueError("a signature needs at least one feature")

    def matches(self, record: ActionView) -> bool:
        """Whether an action record matches this service's signature.

        Both features must match: the ASN ties traffic to the service's
        exit infrastructure, the client variant to its automation stack.
        """
        if self.asns and record.endpoint.asn not in self.asns:
            return False
        if self.client_variants and record.endpoint.fingerprint.variant not in self.client_variants:
            return False
        return True

    def merged_with(self, other: "ServiceSignature") -> "ServiceSignature":
        """Union two signatures for the same service (e.g. re-learning
        after the service migrates ASNs)."""
        if other.service != self.service:
            raise ValueError("cannot merge signatures of different services")
        return ServiceSignature(
            service=self.service,
            service_type=self.service_type,
            asns=self.asns | other.asns,
            client_variants=self.client_variants | other.client_variants,
        )


def learn_signature(
    service: str,
    service_type: ServiceType,
    ground_truth_records: Iterable[ActionView],
) -> ServiceSignature:
    """Build a signature from honeypot-attributed action records.

    For reciprocity services, pass the honeypots' *outbound* actions
    (the AAS issued them); for collusion networks, pass the honeypots'
    *inbound* actions (the AAS delivered them from other customers).
    """
    asns: set[int] = set()
    variants: set[str] = set()
    for record in ground_truth_records:
        asns.add(record.endpoint.asn)
        variants.add(record.endpoint.fingerprint.variant)
    if not asns:
        raise ValueError(f"no ground-truth records to learn {service} from")
    return ServiceSignature(
        service=service,
        service_type=service_type,
        asns=frozenset(asns),
        client_variants=frozenset(variants),
    )
