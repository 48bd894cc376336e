"""Tests for the outcome and collusion-structure analyses."""

import pytest

from repro.aas.base import ServiceType
from repro.analysis.collusion_structure import analyze_structure
from repro.analysis.outcomes import customer_vs_organic, summarize_outcomes
from repro.core.study import INSTA_STAR
from repro.detection.classifier import AttributedActivity
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.models import ActionStatus, ActionType, ApiSurface
from repro.util import derive_rng
from tests.oracles.actionlog import ActionRecord


def make_record(action_id, actor, target, action_type=ActionType.LIKE,
                status=ActionStatus.DELIVERED):
    return ActionRecord(
        action_id=action_id,
        action_type=action_type,
        actor=actor,
        tick=0,
        endpoint=ClientEndpoint(action_id, 100, DeviceFingerprint("android", "aas-x")),
        api=ApiSurface.PRIVATE_MOBILE,
        status=status,
        target_account=target,
    )


class TestCollusionStructure:
    def test_pure_collusion_network(self):
        """Every customer both gives and receives: the mix-network shape."""
        records = []
        members = [1, 2, 3, 4]
        i = 0
        for src in members:
            for dst in members:
                if src != dst:
                    records.append(make_record(i, src, dst))
                    i += 1
        activity = AttributedActivity("Hub", ServiceType.COLLUSION_NETWORK, records)
        structure = analyze_structure(activity)
        assert structure.in_network_fraction == 1.0
        assert structure.dual_role_fraction == 1.0
        assert structure.edge_reciprocity == 1.0

    def test_reciprocity_abuse_shape(self):
        """Reciprocity abuse targets outsiders: near-zero in-network."""
        records = [make_record(i, actor=1, target=100 + i) for i in range(10)]
        activity = AttributedActivity("R", ServiceType.RECIPROCITY_ABUSE, records)
        structure = analyze_structure(activity)
        assert structure.in_network_fraction == 0.0
        assert structure.dual_role_fraction == 0.0

    def test_blocked_actions_excluded(self):
        records = [make_record(0, 1, 2, status=ActionStatus.BLOCKED)]
        structure = analyze_structure(
            AttributedActivity("X", ServiceType.COLLUSION_NETWORK, records)
        )
        assert structure.actions == 0

    def test_tiny_study_contrast(self, tiny_dataset):
        """The two engine kinds are separable purely from structure."""
        hub = analyze_structure(tiny_dataset.attributed["Hublaagram"])
        insta = analyze_structure(tiny_dataset.attributed[INSTA_STAR])
        assert hub.in_network_fraction > 0.9
        assert insta.in_network_fraction < 0.3
        assert hub.dual_role_fraction > insta.dual_role_fraction


class TestOutcomes:
    def test_summary_requires_live_accounts(self, platform):
        with pytest.raises(ValueError):
            summarize_outcomes(platform, "empty", [], 0, 10)

    def test_customers_outperform_baseline(self, tiny_study, tiny_dataset):
        """The product works: enrolled accounts receive more inbound likes
        than matched organic accounts (that's what they paid for)."""
        hub = tiny_dataset.attributed["Hublaagram"]
        customers, organic = customer_vs_organic(
            tiny_study.platform,
            hub.customers,
            tiny_study.population.account_ids,
            tiny_dataset.start_tick,
            tiny_dataset.end_tick,
            derive_rng(7, "outcomes"),
        )
        assert customers.accounts == organic.accounts
        assert customers.median_inbound_likes >= organic.median_inbound_likes

    def test_invalid_pools_rejected(self, tiny_study, tiny_dataset):
        with pytest.raises(ValueError):
            customer_vs_organic(
                tiny_study.platform,
                set(),
                tiny_study.population.account_ids,
                0,
                10,
                derive_rng(1, "x"),
            )
