"""Snapshot fidelity: a restored study continues bit-identically.

The prefix-reuse optimisation in :mod:`repro.fleet` is only sound if a
study thawed from a snapshot envelope is indistinguishable, going
forward, from the study that produced it. The property test here runs
the same pipeline twice — once uninterrupted, once through a
snapshot/restore cycle at the signatures prefix — and demands
byte-identical spans, metrics snapshots, and rendered reports, across
multiple presets and seeds. The tiny preset is also restored at every
earlier prefix, so a field dropped on write at ``build-world`` or
``honeypot`` fails too.
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
    PREFIXES,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    advance_prefix,
    build_prefix,
    config_digest,
    restore_study,
    snapshot_study,
)
from repro.obs.schema import validate_trace
from repro.obs.trace import canonical_lines, render_trace, trace_lines


def _configs() -> list[tuple[str, StudyConfig, int, str]]:
    """(label, config, measurement days, prefix): >=2 presets x >=2 seeds
    at the signatures prefix, plus tiny at every earlier prefix.

    The small preset keeps its world scale but runs a shortened honeypot
    phase and window — snapshot fidelity is independent of phase length,
    and the full small pipeline would dominate the suite's runtime.
    """
    cases = []
    for seed in (11, 12):
        cases.append((f"tiny-{seed}", StudyConfig.tiny(seed=seed), 2, PREFIX_SIGNATURES))
        small = dataclasses.replace(StudyConfig.small(seed=seed), honeypot_days=3)
        cases.append((f"small-{seed}", small, 1, PREFIX_SIGNATURES))
    for prefix in PREFIXES[:-1]:
        cases.append((f"tiny-11-{prefix}", StudyConfig.tiny(seed=11), 2, prefix))
    return cases


def _fingerprint(study: Study, dataset) -> tuple[str, dict, str]:
    """Everything the determinism contract pins: spans, metrics, report."""
    trace = render_trace(canonical_lines(trace_lines(study.obs, meta={})))
    return trace, study.obs.metrics.snapshot(), render_study_report(study, dataset)


@pytest.mark.parametrize(
    "label,config,days,prefix", _configs(), ids=[case[0] for case in _configs()]
)
def test_restored_study_runs_to_end_bit_identically(label, config, days, prefix) -> None:
    direct = Study(config)
    direct.run_honeypot_phase()
    direct.learn_signatures()
    direct_dataset = direct.run_measurement(days_=days)

    restored = restore_study(snapshot_study(build_prefix(config, prefix), prefix))
    for phase in PREFIXES[PREFIXES.index(prefix) + 1 :]:
        advance_prefix(restored, phase)
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

    # What each version changed, so an envelope of any older version is
    # refused rather than thawed into the current layout:
    #
    # | version | layout change over the version before                   |
    # |---------|---------------------------------------------------------|
    # | 3       | collusion engine's per-tick follow state; like          |
    # |         | cooldowns pruned daily                                  |
    # | 4       | collusion engine's per-tick pool ids (the like          |
    # |         | saturation test)                                        |
    # | 5       | per-recipient follow count replaces the per-tick follow |
    # |         | state; free-like saturation verdicts                    |
    # | 6       | ``StudyConfig.profile`` and the pickled                 |
    # |         | ``Observability``'s profiler attribute dropped          |
    # | 7       | the study's agent loop keeps no wake schedule           |
    # | 8       | the action log keeps no tick-order flag; the classifier |
    # |         | keeps no stream-order flag                              |
    # | 9       | collusion follow counts carried across ticks with a     |
    # |         | removal stamp; the graph's per-account removal counts   |
    # | 10      | the graph's follower side is per-account rows mirroring |
    # |         | the following rows (no bulk edge columns, no CSR, no    |
    # |         | overlay or tombstone sets)                              |
    # | 11      | collusion follow counts and the graph's removal counts  |
    # |         | dropped (follow saturation is a per-tick row test)      |
    # | 12      | the action log keeps no per-observer bulk table         |
    # |         | (observers take row ranges)                             |
    # | 13      | no per-country ad impressions, no Followersgratis       |
    # |         | subclass, no password epochs, no unread failure counts  |
    # | 14      | the action log's endpoint column holds each row's       |
    # |         | endpoint by reference (no intern table, no id column)   |
    # | 15      | classifier streams are row-id and tick arrays; media    |
    # |         | store keeps per-liker owner like counts and comment     |
    # |         | counts; no organic following memo; no follower views    |
    @pytest.mark.parametrize("version", range(2, SNAPSHOT_SCHEMA_VERSION))
    def test_older_version_envelope_rejected(self, version: int) -> None:
        expected = f"schema_version {version} != current {SNAPSHOT_SCHEMA_VERSION}"
        with pytest.raises(SnapshotError, match=expected):
            restore_study(self._envelope_of_version(version))

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
