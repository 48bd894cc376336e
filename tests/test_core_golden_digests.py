"""Whole-study golden digests, plus obs-off identity.

The seed-314 tiny pipeline (3 honeypot days, signatures, a 1-day
stability probe, 3 measurement days, a broad intervention) is pinned by
BLAKE2 digests of its observables: the raw action log, the Table 5
reciprocation table, the learned signatures, signal stability,
measurement attribution and tables, the broad-intervention outcome, and
the canonical span stream.

The digests were recorded at commit d29f532, where the simulator still
carried a naive execution mode (per-agent tick loop, set-backed graph,
list-backed log, brute-force attribution) and this suite proved the
production path bit-identical to it on every one of these observables.
Both modes produced the digests below. The naive mode is gone; the
digests stand in for it as the whole-study oracle, so a refactor that
changes any seeded result fails here. The per-structure oracles live in
``tests/oracles/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import Study, StudyConfig
from repro.core import experiments as E
from repro.core import reporting as R
from repro.fleet import PREFIX_SIGNATURES, build_prefix, restore_study, snapshot_study
from repro.interventions.experiment import BroadInterventionPlan
from repro.obs import canonical_lines

#: observable -> blake2b-128 hex digest of its ``repr``, see module doc
GOLDEN = {
    "log_rows": "6202dfac3fc405fc65182695fd485e26",
    "table5": "2b39a3325a5f69afd548578a1b99dc97",
    "signatures": "424c131aa3913515aa6d40f156ccd0f8",
    "stability": "4eb5384771f1c9c2e264ca85d47ad3f3",
    "measurement_attribution": "7aa9e2aef2150114d17b9a7852028797",
    "measurement_tables": "abf57dfffe385d04b4c0e96d4004f5fa",
    "broad_intervention": "8da4042900233469dd4b5c4e263c5ba6",
    "span_stream": "0bc37ea8deecf9e9321db23b6e2f0b0d",
}


def _config(observability: bool = True) -> StudyConfig:
    return replace(
        StudyConfig.tiny(seed=314),
        honeypot_days=3,
        measurement_days=3,
        observability=observability,
    )


def _run(config: StudyConfig):
    study = Study(config)
    results = study.run_honeypot_phase()
    study.learn_signatures()
    stability = study.verify_signal_stability(probe_days=1)
    dataset = study.run_measurement()
    broad = study.run_broad_intervention(
        BroadInterventionPlan(delay_days=1, block_days=1), calibration_days=2
    )
    return study, (results, stability, dataset, broad)


@pytest.fixture(scope="module")
def golden_run():
    return _run(_config())


@pytest.fixture(scope="module")
def dark():
    """The pipeline rerun with ``observability=False``."""
    study, outcomes = _run(_config(observability=False))
    return study, outcomes[3]


def _digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _attributed_ids(attributed) -> list:
    return sorted((k, [r.action_id for r in v.records]) for k, v in attributed.items())


def _log_rows(study: Study) -> list[tuple]:
    return [
        (
            r.action_id,
            r.tick,
            r.actor,
            r.action_type.value,
            r.target_account,
            r.status.value,
            r.endpoint.asn,
            r.endpoint.fingerprint.variant,
        )
        for r in study.platform.log
    ]


def _observable(name: str, golden_run):
    study, (results, stability, dataset, broad) = golden_run
    if name == "log_rows":
        return _log_rows(study)
    if name == "table5":
        return R.render_table5(E.table5_reciprocation(results))
    if name == "signatures":
        assert study.classifier is not None
        return [
            (s.service, s.service_type, tuple(sorted(s.asns)), tuple(sorted(s.client_variants)))
            for s in study.classifier.signatures
        ]
    if name == "stability":
        return sorted(stability.items())
    if name == "measurement_attribution":
        return (
            dataset.start_tick,
            dataset.end_tick,
            _attributed_ids(dataset.attributed),
            sorted((k, tuple(sorted(v))) for k, v in dataset.service_asns.items()),
        )
    if name == "measurement_tables":
        return (
            R.render_table6(E.table6_customers(dataset)),
            R.render_table11(E.table11_action_mix(dataset)),
        )
    if name == "broad_intervention":
        return (broad.start_day, broad.end_day, broad.switch_day, _attributed_ids(broad.attributed))
    if name == "span_stream":
        lines = canonical_lines(study.obs.trace_lines())
        spans = [line for line in lines if line.get("kind") == "span"]
        assert spans  # not trivially empty
        return [json.dumps(line, sort_keys=True) for line in spans]
    raise KeyError(name)


def _assert_golden(name: str, golden_run) -> None:
    assert _digest(_observable(name, golden_run)) == GOLDEN[name], (
        f"{name} drifted from the digest pinned at d29f532"
    )


def test_action_logs_identical(golden_run) -> None:
    _assert_golden("log_rows", golden_run)


def test_reciprocation_tables_identical(golden_run) -> None:
    _assert_golden("table5", golden_run)


def test_signal_stability_identical(golden_run) -> None:
    _assert_golden("stability", golden_run)


def test_signatures_identical(golden_run) -> None:
    _assert_golden("signatures", golden_run)


def test_measurement_attribution_identical(golden_run) -> None:
    _assert_golden("measurement_attribution", golden_run)


def test_measurement_tables_identical(golden_run) -> None:
    _assert_golden("measurement_tables", golden_run)


def test_intervention_outcomes_identical(golden_run) -> None:
    _assert_golden("broad_intervention", golden_run)


def test_span_stream_identical_to_golden(golden_run) -> None:
    _assert_golden("span_stream", golden_run)


def test_every_agent_runs_every_tick(golden_run) -> None:
    """No agent skips a tick: agent runs are agents x ticks elapsed."""
    study, _ = golden_run
    agents = study.obs.metrics.gauge("core.scheduler.agents").value
    runs = study.obs.metrics.get_counter_value("core.scheduler.agent_runs")
    assert agents > 0
    assert runs == agents * study.clock.now


# ----------------------------------------------------------------------
# The log's endpoint column holds references: the world shares one
# object per endpoint value, so the column stores no copies.
# ----------------------------------------------------------------------


def _assert_endpoints_shared(study: Study) -> None:
    endpoints = study.platform.log._cols.endpoints
    assert endpoints
    assert len({id(e) for e in endpoints}) == len(set(endpoints))


def test_log_endpoints_are_shared_objects(golden_run) -> None:
    study, _ = golden_run
    _assert_endpoints_shared(study)


def test_log_endpoints_stay_shared_across_restore() -> None:
    study = build_prefix(_config(), PREFIX_SIGNATURES)
    _assert_endpoints_shared(study)
    restored = restore_study(snapshot_study(study, PREFIX_SIGNATURES))
    _assert_endpoints_shared(restored)
    # rows appended after the restore reuse the restored world's objects
    restored.run_measurement(days_=1)
    _assert_endpoints_shared(restored)


# ----------------------------------------------------------------------
# Observability must be write-only: obs-off runs bit-identical.
# ----------------------------------------------------------------------


def test_obs_off_action_log_identical(golden_run, dark) -> None:
    study, _ = golden_run
    dark_study, _ = dark
    assert dark_study.obs.enabled is False
    assert _log_rows(dark_study) == _log_rows(study)


def test_obs_off_intervention_identical(golden_run, dark) -> None:
    _, outcomes = golden_run
    _, dark_broad = dark
    fast_broad = outcomes[3]
    dark_ids = {k: [r.action_id for r in v.records] for k, v in dark_broad.attributed.items()}
    fast_ids = {k: [r.action_id for r in v.records] for k, v in fast_broad.attributed.items()}
    assert dark_ids == fast_ids


def test_obs_off_collects_nothing(dark) -> None:
    dark_study, _ = dark
    assert dark_study.obs.metrics.snapshot()["metrics"] == []
    assert dark_study.obs.tracer.finished == ()
