"""Tests for the blanket ASN-blocking policy."""

import pytest

from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionType
from tests.oracles.policy import BlanketAsnPolicy


def make_context(asn, action_type=ActionType.LIKE):
    return ActionContext(
        actor=1,
        action_type=action_type,
        endpoint=ClientEndpoint(1, asn, DeviceFingerprint("android")),
        tick=0,
    )


class TestBlanketAsnPolicy:
    def test_blocks_everything_in_asn(self):
        policy = BlanketAsnPolicy(asns=frozenset({5}))
        for action_type in ActionType:
            assert policy.decide(make_context(5, action_type)) is CountermeasureDecision.BLOCK

    def test_other_asns_untouched(self):
        policy = BlanketAsnPolicy(asns=frozenset({5}))
        assert policy.decide(make_context(6)) is CountermeasureDecision.ALLOW

    def test_action_type_scoping(self):
        policy = BlanketAsnPolicy(asns=frozenset({5}), action_types=frozenset({ActionType.LIKE}))
        assert policy.decide(make_context(5, ActionType.LIKE)) is CountermeasureDecision.BLOCK
        assert policy.decide(make_context(5, ActionType.FOLLOW)) is CountermeasureDecision.ALLOW

    def test_counts_decisions(self):
        policy = BlanketAsnPolicy(asns=frozenset({5}))
        policy.decide(make_context(5))
        policy.decide(make_context(5))
        policy.decide(make_context(9))
        assert policy.decisions_applied == 2

    def test_blocks_benign_collateral(self, endpoint):
        """The blunt-instrument property: a benign user inside the ASN is
        blocked too — why the paper built thresholds instead."""
        from repro.platform import InstagramPlatform
        from repro.platform.errors import ActionBlockedError

        platform = InstagramPlatform()
        alice = platform.create_account("alice", "pw")
        bob = platform.create_account("bob", "pw")
        session = platform.login("alice", "pw", endpoint)
        platform.countermeasures.add_policy(BlanketAsnPolicy(asns=frozenset({endpoint.asn})))
        with pytest.raises(ActionBlockedError):
            platform.follow(session, bob.account_id, endpoint)
