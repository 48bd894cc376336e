"""Tests for classifier evaluation against ground truth."""

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.evaluation import (
    ClassificationReport,
    default_variant_map,
    evaluate_classifier,
)
from repro.detection.signals import ServiceSignature
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord


def make_record(action_id, asn, variant):
    return ActionRecord(
        action_id=action_id,
        action_type=ActionType.LIKE,
        actor=1,
        tick=0,
        endpoint=ClientEndpoint(action_id, asn, DeviceFingerprint("android", variant)),
        api=ApiSurface.PRIVATE_MOBILE,
        status=ActionStatus.DELIVERED,
        target_account=2,
    )


@pytest.fixture
def classifier():
    return AASClassifier(
        [
            ServiceSignature(
                "Svc", ServiceType.RECIPROCITY_ABUSE, frozenset({100}), frozenset({"aas-svc"})
            )
        ],
        ActionLog(),
    )


class TestClassificationReport:
    def test_metrics(self):
        report = ClassificationReport("S", true_positives=8, false_positives=2, false_negatives=2)
        assert report.precision == 0.8
        assert report.recall == 0.8
        assert report.f1 == pytest.approx(0.8)

    def test_degenerate_cases(self):
        empty = ClassificationReport("S", 0, 0, 0)
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.f1 == 1.0  # vacuously perfect: nothing to find, nothing flagged


class TestEvaluateClassifier:
    def test_perfect_classification(self, classifier):
        records = [make_record(i, 100, "aas-svc") for i in range(5)]
        records += [make_record(10 + i, 7, "stock") for i in range(5)]
        reports = evaluate_classifier(classifier, records, {"aas-svc": "Svc"})
        assert reports["Svc"].precision == 1.0
        assert reports["Svc"].recall == 1.0
        assert "(organic)" not in reports

    def test_missed_migrated_traffic_lowers_recall(self, classifier):
        # the service moved to ASN 999: same stack, unseen network
        records = [make_record(i, 100, "aas-svc") for i in range(4)]
        records += [make_record(10 + i, 999, "aas-svc") for i in range(4)]
        reports = evaluate_classifier(classifier, records, {"aas-svc": "Svc"})
        assert reports["Svc"].recall == 0.5
        assert reports["Svc"].precision == 1.0

    def test_benign_in_service_asn_not_flagged(self, classifier):
        # a VPN user in the service ASN: stock variant keeps them safe
        records = [make_record(0, 100, "stock")]
        reports = evaluate_classifier(classifier, records, {"aas-svc": "Svc"})
        assert reports.get("Svc") is None or reports["Svc"].false_positives == 0

    def test_organic_false_positive_counted(self):
        # an over-broad signature (no variant restriction) flags benign use
        broad = AASClassifier(
            [ServiceSignature("Svc", ServiceType.RECIPROCITY_ABUSE, frozenset({100}), frozenset())],
            ActionLog(),
        )
        records = [make_record(0, 100, "stock")]
        reports = evaluate_classifier(broad, records, {"aas-svc": "Svc"})
        assert reports["Svc"].false_positives == 1
        assert reports["(organic)"].false_positives == 1


class TestDefaultVariantMap:
    def test_insta_franchises_merge(self):
        mapping = default_variant_map(["Instalex", "Instazood", "Boostgram"])
        assert mapping["aas-insta-parent"] == "Insta*"
        assert mapping["aas-boostgram"] == "Boostgram"
        assert len(mapping) == 2


class TestEndToEnd:
    def test_tiny_study_classifier_quality(self, tiny_study, tiny_dataset):
        """The learned signatures achieve high precision and recall
        against simulation ground truth — quantifying the paper's
        'lower bound' claim."""
        mapping = default_variant_map(tiny_study.services)
        records = [
            r
            for r in tiny_study.platform.log
            if tiny_dataset.start_tick <= r.tick < tiny_dataset.end_tick
        ]
        reports = evaluate_classifier(tiny_study.classifier, records, mapping)
        for service in ("Insta*", "Boostgram", "Hublaagram"):
            report = reports[service]
            assert report.precision >= 0.99
            assert report.recall >= 0.95
