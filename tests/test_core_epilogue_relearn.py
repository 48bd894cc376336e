"""Epilogue with defender re-learning: the arms race runs both ways."""

import dataclasses

import pytest

from repro.core import Study, StudyConfig
from repro.platform.models import ActionType


@pytest.fixture(scope="module")
def relearn_world():
    config = dataclasses.replace(
        StudyConfig.tiny(seed=55),
        enable_migration=True,
        migration_patience_days=5,
    )
    study = Study(config)
    hub = study.services["Hublaagram"]
    hub.config.detector.deployment_lag_ticks[ActionType.LIKE] = 24 * 3
    hub.config.suspend_sales_after_days = 10
    study.run_honeypot_phase()
    study.learn_signatures()
    study.run_measurement(days_=5)
    outcome = study.run_epilogue(days_=30, calibration_days=4, defender_relearn_days=4)
    return study, outcome


class TestDefenderRelearn:
    def test_signatures_track_migrations(self, relearn_world):
        """With re-learning, the classifier covers the post-migration
        infrastructure too, so coverage stays near complete."""
        study, outcome = relearn_world
        assert outcome.signature_coverage >= 0.9

    def test_relearned_signatures_grow(self, relearn_world):
        study, outcome = relearn_world
        if any(outcome.migrations.values()):
            total_signature_asns = sum(
                len(s.asns) for s in study.classifier.signatures
            )
            total_original_asns = sum(len(v) for v in outcome.asns_before.values())
            assert total_signature_asns > total_original_asns

    def test_hublaagram_sustained_pressure(self, relearn_world):
        """Re-learning keeps Hublaagram's likes blocked through its
        migrations; the blocked-day streak accumulates toward the
        out-of-stock suspension (the paper's endgame)."""
        study, outcome = relearn_world
        hub = study.services["Hublaagram"]
        # either it already suspended, or the streak is well underway
        assert outcome.hublaagram_sales_suspended or hub._blocked_day_streak > 0
