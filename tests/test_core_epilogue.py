"""Tests for the Section 6.4 epilogue: migration and sales suspension."""

import dataclasses

import pytest

from repro.core import Study, StudyConfig
from repro.interventions.policy import ThresholdBinPolicy
from repro.interventions.bins import BinAssignment
from repro.interventions.thresholds import CountSubject, ThresholdEntry, ThresholdTable
from repro.netsim.client import ClientEndpoint, DeviceFingerprint
from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionType


def _migrated(outcome) -> set[str]:
    """Services that moved to new infrastructure at least once."""
    return {name for name, moves in outcome.migrations.items() if moves}


@pytest.fixture(scope="module")
def epilogue_world():
    config = dataclasses.replace(
        StudyConfig.tiny(seed=33),
        enable_migration=True,
        migration_patience_days=6,
    )
    study = Study(config)
    # shorten Hublaagram's epilogue constants so the tiny run exercises them
    hub = study.services["Hublaagram"]
    hub.config.detector.deployment_lag_ticks[ActionType.LIKE] = 24 * 4
    hub.config.suspend_sales_after_days = 8
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement(days_=5)
    outcome = study.run_epilogue(days_=26, calibration_days=4)
    return study, outcome


class TestPerActionTreatments:
    def _policy(self):
        table = ThresholdTable()
        table.add(ThresholdEntry(5, ActionType.LIKE, 0.0, CountSubject.ACTOR, True))
        table.add(ThresholdEntry(5, ActionType.FOLLOW, 0.0, CountSubject.ACTOR, True))
        return ThresholdBinPolicy(
            thresholds=table,
            assignment=BinAssignment.broad_block(),
            per_action_treatments={
                ActionType.LIKE: CountermeasureDecision.BLOCK,
                ActionType.FOLLOW: CountermeasureDecision.DELAY_REMOVE,
            },
        )

    def _context(self, actor, action_type):
        return ActionContext(
            actor=actor,
            action_type=action_type,
            endpoint=ClientEndpoint(1, 5, DeviceFingerprint("android", "aas-x")),
            tick=0,
        )

    def test_mixed_regime(self):
        policy = self._policy()
        # find a treated account
        actor = next(a for a in range(1, 500) if BinAssignment.broad_block().group_of(a) == "block")
        assert policy.decide(self._context(actor, ActionType.LIKE)) is CountermeasureDecision.BLOCK
        assert (
            policy.decide(self._context(actor, ActionType.FOLLOW))
            is CountermeasureDecision.DELAY_REMOVE
        )

    def test_control_still_untouched(self):
        policy = self._policy()
        actor = next(a for a in range(1, 500) if BinAssignment.broad_block().group_of(a) == "control")
        assert policy.decide(self._context(actor, ActionType.LIKE)) is CountermeasureDecision.ALLOW


class TestEpilogue:
    def test_services_migrate_asns(self, epilogue_world):
        """Paper: "all AASs eventually moved their like traffic to
        different ASNs"."""
        study, outcome = epilogue_world
        migrated = _migrated(outcome)
        assert "Instalex" in migrated or "Instazood" in migrated or "Boostgram" in migrated
        for name in migrated:
            assert outcome.asns_after[name] != outcome.asns_before[name]

    def test_one_service_adopts_proxy_network(self, epilogue_world):
        study, outcome = epilogue_world
        if "Instalex" in _migrated(outcome):
            labels = [label for _, label in outcome.migrations["Instalex"]]
            assert any("proxy-network" in label for label in labels)
            # drastic IP/ASN diversity
            assert len(outcome.asns_after["Instalex"]) > 5

    def test_signature_coverage_degrades(self, epilogue_world):
        """Post-migration traffic escapes the original signatures."""
        study, outcome = epilogue_world
        if _migrated(outcome):
            assert outcome.signature_coverage < 1.0

    def test_hublaagram_suspends_sales(self, epilogue_world):
        """Paper: Hublaagram listed all services as "out of stock"."""
        study, outcome = epilogue_world
        hub = study.services["Hublaagram"]
        if outcome.hublaagram_sales_suspended:
            from repro.aas.collusion_service import ServiceSuspendedError

            customer = next(iter(hub.customers))
            with pytest.raises(ServiceSuspendedError):
                hub.purchase_no_outbound(customer)

    def test_requires_signatures(self):
        study = Study(StudyConfig.tiny(seed=34))
        with pytest.raises(RuntimeError):
            study.run_epilogue()
