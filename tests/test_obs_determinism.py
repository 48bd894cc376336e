"""End-to-end determinism and acceptance tests for repro.obs.

Two contracts are pinned here:

* **Trace determinism** — two runs of the same seeded config write
  byte-identical JSONL traces (wall-clock fields are opt-in and off by
  default; ``canonical_lines`` covers the opt-in case).
* **Zero observer effect** — a study run with ``observability=False``
  produces exactly the same action log as the instrumented run; the
  telemetry is write-only.

Plus the ISSUE acceptance check: a full-pipeline trace must carry
nonzero index-hit, sweep-tier, and scheduler park/wake counters.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.core import Study, StudyConfig
from repro.obs import read_trace_lines, validate_trace
from repro.obs.cli import main as obs_main


def _config(observability: bool = True) -> StudyConfig:
    return replace(
        StudyConfig.tiny(seed=314),
        honeypot_days=3,
        measurement_days=3,
        observability=observability,
    )


def _run_pipeline(config: StudyConfig) -> Study:
    study = Study(config)
    study.run_honeypot_phase()
    study.learn_signatures()
    study.verify_signal_stability(probe_days=1)
    study.run_measurement()
    return study


@pytest.fixture(scope="module")
def instrumented() -> Study:
    return _run_pipeline(_config())


def _log_rows(study: Study) -> list[tuple]:
    return [
        (r.action_id, r.tick, r.actor, r.action_type.value, r.target_account, r.status.value)
        for r in study.platform.log
    ]


class TestTraceDeterminism:
    def test_same_seed_writes_byte_identical_traces(self, instrumented, tmp_path) -> None:
        rerun = _run_pipeline(_config())
        first = instrumented.obs.dump_trace(tmp_path / "a.jsonl", meta={"seed": 314})
        second = rerun.obs.dump_trace(tmp_path / "b.jsonl", meta={"seed": 314})
        assert first.read_bytes() == second.read_bytes()

    def test_trace_validates(self, instrumented, tmp_path) -> None:
        path = instrumented.obs.dump_trace(tmp_path / "trace.jsonl")
        assert validate_trace(read_trace_lines(path)) == []


class TestObserverEffect:
    def test_obs_off_study_is_bit_identical(self, instrumented) -> None:
        dark = _run_pipeline(_config(observability=False))
        assert dark.obs.enabled is False
        assert dark.obs.metrics.snapshot()["metrics"] == []
        assert dark.obs.tracer.finished == ()
        assert _log_rows(dark) == _log_rows(instrumented)


class TestAcceptance:
    """The standard pipeline trace reports nonzero window-query, sweep
    and scheduler counters."""

    def test_pipeline_counters_are_live(self, instrumented) -> None:
        metrics = instrumented.obs.metrics
        assert metrics.get_counter_value("platform.actionlog.window_query") > 0
        assert metrics.get_counter_value("detection.classifier.sweeps") > 0
        assert metrics.get_counter_value("core.scheduler.agent_runs") > 0
        assert metrics.get_counter_value("platform.actionlog.appends") == len(
            instrumented.platform.log
        )

    def test_summarize_reports_the_counters(self, instrumented, tmp_path, capsys) -> None:
        path = instrumented.obs.dump_trace(tmp_path / "trace.jsonl", meta={"seed": 314})
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        # unlabeled and nonzero: the counter name, then a count from 1 up
        for name in (
            "platform.actionlog.window_query",
            "detection.classifier.sweeps",
            "core.scheduler.agent_runs",
        ):
            assert re.search(rf"^\s+{re.escape(name)}\s+[1-9]", out, re.MULTILINE), name
        assert "measurement-window" in out

    def test_phase_spans_cover_the_pipeline(self, instrumented) -> None:
        names = [span.name for span in instrumented.obs.tracer.finished]
        for expected in (
            "build-world",
            "register-honeypots",
            "honeypot-phase",
            "learn-signatures",
            "stability-probe",
            "sweep",
            "measurement-window",
        ):
            assert expected in names, expected
        by_name = {span.name: span for span in instrumented.obs.tracer.finished}
        assert by_name["register-honeypots"].parent_id == by_name["honeypot-phase"].span_id
        assert by_name["sweep"].parent_id == by_name["measurement-window"].span_id
