"""Tests for signature learning and the AAS classifier."""

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.signals import ServiceSignature, learn_signature
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.actions import ActionLog
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from tests.oracles.actionlog import ActionRecord


def make_record(action_id=0, asn=100, variant="aas-x", actor=1, target=2,
                action_type=ActionType.LIKE, tick=0, status=ActionStatus.DELIVERED):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=tick,
        endpoint=ClientEndpoint(0x0A000000 + action_id, asn, DeviceFingerprint("android", variant)),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )


class TestLearnSignature:
    def test_learns_asns_and_variants(self):
        records = [make_record(asn=100), make_record(asn=101)]
        signature = learn_signature("X", ServiceType.RECIPROCITY_ABUSE, records)
        assert signature.asns == {100, 101}
        assert signature.client_variants == {"aas-x"}

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            learn_signature("X", ServiceType.RECIPROCITY_ABUSE, [])

    def test_matching_requires_both_features(self):
        signature = learn_signature("X", ServiceType.RECIPROCITY_ABUSE, [make_record()])
        assert signature.matches(make_record(asn=100, variant="aas-x"))
        assert not signature.matches(make_record(asn=100, variant="stock"))
        assert not signature.matches(make_record(asn=999, variant="aas-x"))

    def test_merge(self):
        a = learn_signature("X", ServiceType.RECIPROCITY_ABUSE, [make_record(asn=1)])
        b = learn_signature("X", ServiceType.RECIPROCITY_ABUSE, [make_record(asn=2)])
        merged = a.merged_with(b)
        assert merged.asns == {1, 2}

    def test_merge_different_services_rejected(self):
        a = learn_signature("X", ServiceType.RECIPROCITY_ABUSE, [make_record()])
        b = learn_signature("Y", ServiceType.RECIPROCITY_ABUSE, [make_record()])
        with pytest.raises(ValueError):
            a.merged_with(b)


SIGNATURES = (
    ServiceSignature(
        "Recip", ServiceType.RECIPROCITY_ABUSE, frozenset({100}), frozenset({"aas-r"})
    ),
    ServiceSignature(
        "Coll", ServiceType.COLLUSION_NETWORK, frozenset({200}), frozenset({"aas-c"})
    ),
)


def bound(records) -> AASClassifier:
    """A classifier bound to a fresh log holding ``records``."""
    log = ActionLog()
    for record in records:
        log.append(record)
    return AASClassifier(SIGNATURES, log)


@pytest.fixture
def classifier():
    return bound([])


class TestAASClassifier:
    def test_attribute(self, classifier):
        assert classifier.attribute(make_record(asn=100, variant="aas-r")) == "Recip"
        assert classifier.attribute(make_record(asn=200, variant="aas-c")) == "Coll"
        assert classifier.attribute(make_record(asn=300, variant="stock")) is None

    def test_duplicate_signatures_rejected(self):
        signature = ServiceSignature("X", ServiceType.RECIPROCITY_ABUSE, frozenset({1}), frozenset())
        with pytest.raises(ValueError):
            AASClassifier([signature, signature], ActionLog())

    def test_sweep_partitions_by_service_and_window(self):
        records = [
            make_record(0, asn=100, variant="aas-r", tick=5),
            make_record(1, asn=200, variant="aas-c", tick=5),
            make_record(2, asn=1, variant="stock", tick=5),  # benign
            make_record(3, asn=100, variant="aas-r", tick=50),  # outside window
        ]
        out = bound(records).sweep(start_tick=0, end_tick=10)
        assert len(out["Recip"].records) == 1
        assert len(out["Coll"].records) == 1

    def test_sweep_blocked_included_by_default(self):
        classifier = bound([make_record(0, asn=100, variant="aas-r", status=ActionStatus.BLOCKED)])
        assert len(classifier.sweep()["Recip"].records) == 1
        assert len(classifier.sweep(include_blocked=False)["Recip"].records) == 0

    def test_benign_records(self):
        records = [
            make_record(0, asn=100, variant="aas-r"),
            make_record(1, asn=5, variant="stock"),
        ]
        benign = bound(records).benign_records()
        assert len(benign) == 1
        assert benign[0].endpoint.asn == 5

    def test_customer_identification_reciprocity(self):
        """Reciprocity customers are the actors, not the targets."""
        records = [make_record(0, asn=100, variant="aas-r", actor=7, target=8)]
        activity = bound(records).sweep()["Recip"]
        assert activity.customers == {7}
        assert activity.inbound_only_accounts == set()

    def test_customer_identification_collusion(self):
        """Collusion customers include recipients; inbound-only accounts
        are the no-outbound fee payers (Section 5.2)."""
        records = [
            make_record(0, asn=200, variant="aas-c", actor=7, target=8),
            make_record(1, asn=200, variant="aas-c", actor=8, target=9),
        ]
        activity = bound(records).sweep()["Coll"]
        assert activity.customers == {7, 8, 9}
        assert activity.inbound_only_accounts == {9}

    def test_observed_asns(self):
        records = [make_record(0, asn=100, variant="aas-r")]
        assert bound(records).sweep()["Recip"].observed_asns == {100}
