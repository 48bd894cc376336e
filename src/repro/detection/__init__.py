"""Abuse detection and attribution (paper Section 5 preamble).

"Based on features gathered from our honeypot accounts, such as the type
of action, commonly tracked information about the client (e.g., IP
address, ASN, etc.), and additional signals produced within Instagram,
we can identify the actions initiated by each AAS."

* :mod:`repro.detection.signals` — learns per-service signatures
  (ASN + client-stack variant) from honeypot ground truth.
* :mod:`repro.detection.classifier` — sweeps the platform's action log,
  attributing actions to services and identifying customer accounts.
* :mod:`repro.detection.customers` — customer-base analytics: activity
  spans, long/short-term split, birth/death dynamics, conversion rates,
  and geolocation (Tables 6-7, Section 5.1).
"""

from repro.detection.signals import ServiceSignature, learn_signature
from repro.detection.classifier import AASClassifier, AttributedActivity
from repro.detection.customers import CustomerActivity, CustomerBaseAnalytics
from repro.detection.evaluation import (
    ClassificationReport,
    default_variant_map,
    evaluate_classifier,
)

__all__ = [
    "ServiceSignature",
    "learn_signature",
    "AASClassifier",
    "AttributedActivity",
    "CustomerActivity",
    "CustomerBaseAnalytics",
    "ClassificationReport",
    "evaluate_classifier",
    "default_variant_map",
]
