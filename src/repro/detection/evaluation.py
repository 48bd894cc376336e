"""Classifier quality evaluation against simulation ground truth.

The paper could only state that its classification is "a lower bound"
on AAS activity — completeness against the real services was
unverifiable. The simulation knows the truth (every action's endpoint
fingerprint identifies the automation stack), so this module computes
the precision/recall the paper could not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.detection.classifier import AASClassifier
from repro.platform.columns import ActionView


@dataclass(frozen=True)
class ClassificationReport:
    """Action-level confusion counts for one service label."""

    service: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def ground_truth_label(record: ActionView, variant_to_service: dict[str, str]) -> str | None:
    """The simulation's own label for a record (None = organic)."""
    return variant_to_service.get(record.endpoint.fingerprint.variant)


def evaluate_classifier(
    classifier: AASClassifier,
    records: Iterable[ActionView],
    variant_to_service: dict[str, str],
) -> dict[str, ClassificationReport]:
    """Compare classifier attributions with ground-truth stack variants.

    ``variant_to_service`` maps automation-stack variants (e.g.
    ``"aas-insta-parent"``) to the *reported* service label (e.g.
    ``"Insta*"``) — the same merging the classifier is expected to do.
    Returns one report per reported service, plus an ``"(organic)"``
    entry whose false positives are benign actions wrongly attributed.
    """
    counts: dict[str, dict[str, int]] = {}

    def bucket(service: str) -> dict[str, int]:
        return counts.setdefault(service, {"tp": 0, "fp": 0, "fn": 0})

    for record in records:
        truth = ground_truth_label(record, variant_to_service)
        predicted = classifier.attribute(record)
        if truth is None and predicted is None:
            continue
        if truth == predicted:
            bucket(truth)["tp"] += 1
        else:
            if predicted is not None:
                bucket(predicted)["fp"] += 1
            if truth is not None:
                bucket(truth)["fn"] += 1
            if truth is None:
                bucket("(organic)")["fn"] += 0  # ensure bucket exists
                bucket("(organic)")["fp"] += 1
    return {
        service: ClassificationReport(
            service=service,
            true_positives=c["tp"],
            false_positives=c["fp"],
            false_negatives=c["fn"],
        )
        for service, c in counts.items()
    }


def default_variant_map(service_names: Iterable[str]) -> dict[str, str]:
    """The standard variant→label mapping for the built-in services.

    Instalex/Instazood share the parent stack and are reported merged as
    Insta*; every other service maps to itself.
    """
    mapping: dict[str, str] = {}
    for name in service_names:
        if name in ("Instalex", "Instazood"):
            mapping["aas-insta-parent"] = "Insta*"
        else:
            mapping[f"aas-{name.lower()}"] = name
    return mapping
