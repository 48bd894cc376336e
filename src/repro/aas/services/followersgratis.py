"""Followersgratis: the small collusion-network AAS.

Paper facts encoded here:

* Table 1 — offers like and follow only.
* Table 4 — paid follow/like bundles (``FollowersgratisCatalog``, priced
  in the Table 4 report; no simulated customer buys one).
* Table 7 / Section 5 — operates from Indonesia with a *tiny* exit-IP
  pool, which is why "the service was already well-policed by
  pre-existing abuse detection systems that prevent high volumes of
  abuse originating from a small number of IP addresses" and why the
  paper excludes it from the business analyses.
"""

from __future__ import annotations

import numpy as np

from repro.aas.base import ServiceDescriptor, ServiceType
from repro.aas.collusion_service import CollusionNetworkService, CollusionServiceConfig
from repro.aas.pricing import HublaagramCatalog
from repro.netsim.fabric import NetworkFabric
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import ActionType

FOLLOWERSGRATIS_DESCRIPTOR = ServiceDescriptor(
    name="Followersgratis",
    service_type=ServiceType.COLLUSION_NETWORK,
    offered_actions=frozenset({ActionType.LIKE, ActionType.FOLLOW}),
    operating_country="IDN",
    asn_countries=("IDN",),
    endpoints_per_asn=2,  # the small IP pool that got it pre-policed
)


def make_followersgratis(
    platform: InstagramPlatform,
    fabric: NetworkFabric,
    rng: np.random.Generator,
    quantity_scale: float = 0.1,
) -> CollusionNetworkService:
    """Build a Followersgratis instance (free follows only)."""
    config = CollusionServiceConfig(
        catalog=HublaagramCatalog().scaled(quantity_scale),  # engine needs a catalog
        likes_per_free_request=max(1, int(20 * quantity_scale)),
        follows_per_free_request=max(1, int(25 * quantity_scale)),
        comments_per_free_request=1,
        free_requests_per_hour=1,
        free_delivery_per_hour=max(2, int(40 * quantity_scale)),
        paid_delivery_per_hour=max(4, int(200 * quantity_scale)),
        offers_ads=False,
        free_action_types=frozenset({ActionType.FOLLOW}),
    )
    return CollusionNetworkService(FOLLOWERSGRATIS_DESCRIPTOR, platform, fabric, rng, config)
