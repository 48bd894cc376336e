"""Account Automation Services (AASs).

Implementations of the five services the paper studied, built from two
engines matching the paper's taxonomy (Section 3):

* **Reciprocity abuse** (:class:`ReciprocityAbuseService`): drives
  outbound likes/follows from customer accounts at curated targets,
  harvesting organic reciprocation — Instalex, Instazood, Boostgram.
* **Collusion network** (:class:`CollusionNetworkService`): orchestrates
  inbound actions between customer accounts — Hublaagram,
  Followersgratis.

Shared infrastructure: customer registry with plaintext credential
intake (Section 3.3.1), trial/paid plan handling (Tables 2-4), a payment
ledger, pop-under ad monetization (Hublaagram), block-detection and
threshold-probing adaptation (Section 6.3), and post-block ASN/proxy
migration (Section 6.4 epilogue).
"""

from repro.aas.pricing import (
    HublaagramCatalog,
    LikePackage,
    MonthlyLikeTier,
    SubscriptionPricing,
)
from repro.aas.ledger import Payment, PaymentLedger
from repro.aas.base import (
    AccountAutomationService,
    CustomerRecord,
    ServiceDescriptor,
    ServiceType,
)
from repro.aas.targeting import CuratedPool, ReciprocityTargeting
from repro.aas.blockdetect import BlockDetector
from repro.aas.adaptation import MigrationPolicy
from repro.aas.reciprocity_service import ReciprocityAbuseService, ReciprocityServiceConfig
from repro.aas.collusion_service import CollusionNetworkService, CollusionServiceConfig
from repro.aas.ads import PopUnderAdNetwork
from repro.aas.clientele import ClienteleDriver, ClienteleParams
from repro.aas.services import (
    make_boostgram,
    make_followersgratis,
    make_hublaagram,
    make_instalex,
    make_instazood,
)

__all__ = [
    "SubscriptionPricing",
    "HublaagramCatalog",
    "LikePackage",
    "MonthlyLikeTier",
    "Payment",
    "PaymentLedger",
    "AccountAutomationService",
    "CustomerRecord",
    "ServiceDescriptor",
    "ServiceType",
    "CuratedPool",
    "ReciprocityTargeting",
    "BlockDetector",
    "MigrationPolicy",
    "ReciprocityAbuseService",
    "ReciprocityServiceConfig",
    "CollusionNetworkService",
    "CollusionServiceConfig",
    "PopUnderAdNetwork",
    "ClienteleDriver",
    "ClienteleParams",
    "make_instalex",
    "make_instazood",
    "make_boostgram",
    "make_hublaagram",
    "make_followersgratis",
]
