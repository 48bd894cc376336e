"""Snapshot fidelity: a restored study continues bit-identically.

The prefix-reuse optimisation in :mod:`repro.fleet` is only sound if a
study thawed from a snapshot envelope is indistinguishable, going
forward, from the study that produced it. The property test here runs
the same pipeline twice — once uninterrupted, once through a
snapshot/restore cycle at the signatures prefix — and demands
byte-identical spans, metrics snapshots, and rendered reports, across
multiple presets and seeds.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import Study, StudyConfig
from repro.core.experiments import render_study_report
from repro.fleet import (
    PREFIX_BUILD_WORLD,
    PREFIX_SIGNATURES,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotCache,
    SnapshotError,
    build_prefix,
    config_digest,
    restore_study,
    snapshot_study,
)
from repro.obs.schema import validate_trace
from repro.obs.trace import canonical_lines, render_trace, trace_lines


def _configs() -> list[tuple[str, StudyConfig, int]]:
    """(label, config, measurement days) across >=2 presets x >=2 seeds.

    The small preset keeps its world scale but runs a shortened honeypot
    phase and window — snapshot fidelity is independent of phase length,
    and the full small pipeline would dominate the suite's runtime.
    """
    cases = []
    for seed in (11, 12):
        cases.append((f"tiny-{seed}", StudyConfig.tiny(seed=seed), 2))
        small = dataclasses.replace(StudyConfig.small(seed=seed), honeypot_days=3)
        cases.append((f"small-{seed}", small, 1))
    return cases


def _fingerprint(study: Study, dataset) -> tuple[str, dict, str]:
    """Everything the determinism contract pins: spans, metrics, report."""
    trace = render_trace(canonical_lines(trace_lines(study.obs, meta={})))
    return trace, study.obs.metrics.snapshot(), render_study_report(study, dataset)


@pytest.mark.parametrize(
    "label,config,days", _configs(), ids=[case[0] for case in _configs()]
)
def test_restored_study_runs_to_end_bit_identically(label, config, days) -> None:
    direct = Study(config)
    direct.run_honeypot_phase()
    direct.learn_signatures()
    direct_dataset = direct.run_measurement(days_=days)

    built = build_prefix(config, PREFIX_SIGNATURES)
    restored = restore_study(snapshot_study(built, PREFIX_SIGNATURES))
    restored_dataset = restored.run_measurement(days_=days)

    direct_trace, direct_metrics, direct_report = _fingerprint(direct, direct_dataset)
    thawed_trace, thawed_metrics, thawed_report = _fingerprint(restored, restored_dataset)
    assert thawed_trace == direct_trace
    assert thawed_metrics == direct_metrics
    assert thawed_report == direct_report
    assert validate_trace(canonical_lines(trace_lines(restored.obs, meta={}))) == []


class TestEnvelope:
    def test_build_world_prefix_snapshots_before_any_phase(self) -> None:
        config = StudyConfig.tiny(seed=11)
        study = restore_study(snapshot_study(build_prefix(config, PREFIX_BUILD_WORLD), PREFIX_BUILD_WORLD))
        assert study.clock.now == 0

    def test_unknown_prefix_rejected(self) -> None:
        config = StudyConfig.tiny(seed=11)
        with pytest.raises(ValueError, match="unknown prefix"):
            build_prefix(config, "after-lunch")
        with pytest.raises(ValueError, match="unknown prefix"):
            snapshot_study(Study(config), "after-lunch")

    def test_garbage_bytes_rejected(self) -> None:
        with pytest.raises(SnapshotError, match="unreadable"):
            restore_study(b"not a pickle")

    def test_wrong_schema_version_rejected(self) -> None:
        blob = snapshot_study(build_prefix(StudyConfig.tiny(seed=11), PREFIX_BUILD_WORLD), PREFIX_BUILD_WORLD)
        envelope = pickle.loads(blob)
        envelope["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotError, match="schema_version"):
            restore_study(pickle.dumps(envelope))

    @staticmethod
    def _envelope_of_version(version: int) -> bytes:
        blob = snapshot_study(build_prefix(StudyConfig.tiny(seed=11), PREFIX_BUILD_WORLD), PREFIX_BUILD_WORLD)
        envelope = pickle.loads(blob)
        envelope["schema_version"] = version
        return pickle.dumps(envelope)

    def test_version_2_envelope_rejected(self) -> None:
        """Version 3 added the collusion engine's per-tick follow state and
        prunes like cooldowns daily; a version-2 envelope is refused, not
        thawed into the new layout."""
        with pytest.raises(SnapshotError, match="schema_version 2 != current 6"):
            restore_study(self._envelope_of_version(2))

    def test_version_3_envelope_rejected(self) -> None:
        """Version 4 added the collusion engine's per-tick pool ids (the
        like saturation test); a version-3 envelope is refused too."""
        with pytest.raises(SnapshotError, match="schema_version 3 != current 6"):
            restore_study(self._envelope_of_version(3))

    def test_version_4_envelope_rejected(self) -> None:
        """Version 5 replaced the collusion engine's per-tick follow state
        with a count per recipient and added its free-like saturation
        verdicts; a version-4 envelope is refused."""
        with pytest.raises(SnapshotError, match="schema_version 4 != current 6"):
            restore_study(self._envelope_of_version(4))

    def test_version_5_envelope_rejected(self) -> None:
        """Version 6 dropped ``StudyConfig.profile`` and the pickled
        ``Observability``'s profiler attribute; a version-5 envelope is
        refused."""
        assert SNAPSHOT_SCHEMA_VERSION == 6
        with pytest.raises(SnapshotError, match="schema_version 5 != current 6"):
            restore_study(self._envelope_of_version(5))

    def test_envelope_without_study_rejected(self) -> None:
        blob = pickle.dumps({"schema_version": SNAPSHOT_SCHEMA_VERSION, "study": "nope"})
        with pytest.raises(SnapshotError, match="does not carry a Study"):
            restore_study(blob)

    def test_rng_digest_mismatch_rejected(self) -> None:
        blob = snapshot_study(build_prefix(StudyConfig.tiny(seed=11), PREFIX_BUILD_WORLD), PREFIX_BUILD_WORLD)
        envelope = pickle.loads(blob)
        envelope["rng_digest"] = "0" * 32
        with pytest.raises(SnapshotError, match="RNG streams"):
            restore_study(pickle.dumps(envelope))


class TestConfigDigest:
    def test_digest_is_stable_and_seed_sensitive(self) -> None:
        assert config_digest(StudyConfig.tiny(seed=11)) == config_digest(StudyConfig.tiny(seed=11))
        assert config_digest(StudyConfig.tiny(seed=11)) != config_digest(StudyConfig.tiny(seed=12))
        assert config_digest(StudyConfig.tiny(seed=11)) != config_digest(StudyConfig.small(seed=11))


class TestSnapshotCache:
    def test_second_request_hits_and_builder_also_restores(self) -> None:
        cache = SnapshotCache()
        config = StudyConfig.tiny(seed=11)
        first, hit_first = cache.get_or_build(config, PREFIX_BUILD_WORLD)
        second, hit_second = cache.get_or_build(config, PREFIX_BUILD_WORLD)
        assert (hit_first, hit_second) == (False, True)
        assert (cache.builds, cache.restores) == (1, 2)
        assert first is not second  # every caller gets an independent fork

    def test_distinct_seeds_do_not_share_an_envelope(self) -> None:
        cache = SnapshotCache()
        cache.get_or_build(StudyConfig.tiny(seed=11), PREFIX_BUILD_WORLD)
        _, hit = cache.get_or_build(StudyConfig.tiny(seed=12), PREFIX_BUILD_WORLD)
        assert not hit
        assert cache.builds == 2
