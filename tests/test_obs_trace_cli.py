"""Tests for the JSONL trace sink, trace validation, and the obs CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    Observability,
    canonical_lines,
    label_replica,
    read_trace_lines,
    split_segments,
    validate_trace,
    write_trace,
)
from repro.obs.cli import main
from repro.obs.trace import render_trace


def _sample_obs(wall: bool = False) -> Observability:
    ticks = iter(range(1000))
    obs = Observability(
        enabled=True,
        wall_source=(lambda: float(next(ticks))) if wall else None,
    )
    clock = {"now": 0}
    obs.bind_tick_source(lambda: clock["now"])
    with obs.span("honeypot-phase", days=3):
        clock["now"] = 72
    with obs.span("measurement-window", days=3):
        with obs.span("sweep", start_tick=72, end_tick=144):
            obs.counter("detection.classifier.memo", result="hit").inc(10)
            obs.counter("detection.classifier.sweeps").inc()
        clock["now"] = 144
    obs.gauge("core.scheduler.agents").set(5)
    obs.histogram("platform.actionlog.batch_fill").observe(3)
    return obs


class TestTraceSink:
    def test_trace_lines_shape(self) -> None:
        lines = _sample_obs().trace_lines(meta={"seed": 7})
        assert lines[0] == {
            "kind": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
            "meta": {"seed": 7},
        }
        assert lines[-1]["kind"] == "snapshot"
        span_names = [line["name"] for line in lines[1:-1]]
        # completion order: sweep closes before its parent window
        assert span_names == ["honeypot-phase", "sweep", "measurement-window"]
        assert validate_trace(lines) == []

    def test_write_and_read_roundtrip(self, tmp_path: Path) -> None:
        path = write_trace(tmp_path / "trace.jsonl", _sample_obs(), meta={"seed": 7})
        lines = read_trace_lines(path)
        assert validate_trace(lines) == []
        assert lines == _sample_obs().trace_lines(meta={"seed": 7})

    def test_read_rejects_bad_json_with_location(self, tmp_path: Path) -> None:
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "header"}\n{not json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            read_trace_lines(path)

    def test_canonical_lines_strip_wall_clock(self, tmp_path: Path) -> None:
        timed = _sample_obs(wall=True).trace_lines()
        plain = _sample_obs(wall=False).trace_lines()
        assert any("wall_s" in line for line in timed if line.get("kind") == "span")
        assert canonical_lines(timed) == canonical_lines(plain) == plain

    def test_validate_trace_rejects_malformed(self) -> None:
        good = _sample_obs().trace_lines()
        assert validate_trace(good[:1]) != []  # no snapshot line
        no_header = [{"kind": "span"}] + good[1:]
        assert any("header" in error for error in validate_trace(no_header))
        dup = [good[0], good[1], good[1], good[-1]]
        assert any("duplicate span id" in error for error in validate_trace(dup))
        backwards = json.loads(json.dumps(good))
        backwards[1]["end_tick"] = backwards[1]["start_tick"] - 1
        assert any("end_tick" in error for error in validate_trace(backwards))


class TestMergedTraces:
    """Fleet traces are per-replica segments concatenated in spec order."""

    def _merged(self) -> list:
        first = label_replica(_sample_obs().trace_lines(meta={"seed": 7}), "seed-7/a")
        second = label_replica(_sample_obs().trace_lines(meta={"seed": 8}), "seed-8/a")
        return first + second

    def test_label_replica_stamps_every_line(self) -> None:
        lines = label_replica(_sample_obs().trace_lines(), "seed-7/a")
        assert all(line["replica"] == "seed-7/a" for line in lines)

    def test_split_segments_at_each_header(self) -> None:
        merged = self._merged()
        segments = split_segments(merged)
        assert len(segments) == 2
        assert [seg[0]["replica"] for seg in segments] == ["seed-7/a", "seed-8/a"]
        assert sum(len(seg) for seg in segments) == len(merged)

    def test_multi_segment_trace_validates(self) -> None:
        assert validate_trace(self._merged()) == []

    def test_multi_segment_errors_name_the_segment(self) -> None:
        merged = self._merged()
        broken = merged[: len(merged) // 2 + 1] + merged[len(merged) // 2 + 1 : -1]
        errors = validate_trace(broken)
        assert errors
        assert all(error.startswith("trace.segment[1]") for error in errors)

    def test_summarize_merges_segments_across_files(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        paths = []
        for index, seed in enumerate((7, 8)):
            path = tmp_path / f"trace-{index}.jsonl"
            path.write_text(
                "\n".join(
                    json.dumps(line)
                    for line in label_replica(
                        _sample_obs().trace_lines(meta={"seed": seed}), f"seed-{seed}/a"
                    )
                )
                + "\n",
                encoding="utf-8",
            )
            paths.append(str(path))
        assert main(["summarize", *paths]) == 0
        out = capsys.readouterr().out
        assert "Merged 2 trace segment(s) from 2 file(s)  (6 spans)" in out
        # counters sum across segments: 10 per segment -> 20 merged
        assert "detection.classifier.memo{result=hit}" in out
        assert "20" in out


class TestSweepView:
    """``summarize --sweep``: the fleet roll-up + one row per replica."""

    def _sweep_trace(self, tmp_path: Path) -> str:
        fleet_obs = Observability(enabled=True)
        fleet_obs.counter("fleet.replicas").inc(2)
        fleet_obs.counter("fleet.phase.units").inc(6)
        fleet_obs.counter("fleet.phase.builds").inc(3)
        fleet_obs.gauge("fleet.store.bytes").set(1024)
        roll_up = {
            "strategy": "tree",
            "replica_count": 2,
            "prefix_groups": 1,
            "phase_units": 6,
            "phase_builds": 3,
            "build_cost_avoided_frac": 0.5,
        }
        lines = label_replica(
            canonical_lines(
                fleet_obs.trace_lines(meta={"replica": "__fleet__", "fleet": roll_up})
            ),
            "__fleet__",
        )
        for name, reused in (("seed-7/standard", False), ("seed-8/standard", True)):
            meta = {"replica": name, "arm": "standard", "prefix_reused": reused}
            lines += label_replica(
                canonical_lines(_sample_obs().trace_lines(meta=meta)), name
            )
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8"
        )
        return str(path)

    def test_roll_up_counters_and_replica_rows(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        assert main(["summarize", "--sweep", self._sweep_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (
            "Sweep: 2 replicas  strategy=tree  groups=1  "
            "phase builds 3/6  build cost avoided 50.0%" in out
        )
        assert "fleet.phase.units" in out
        assert "fleet.store.bytes" in out
        rows = [line for line in out.splitlines() if "seed-" in line]
        assert len(rows) == 2
        assert "no" in rows[0] and "yes" in rows[1]
        # the fleet segment itself is not listed as a replica
        assert "__fleet__" not in "\n".join(rows)

    def test_plain_fleet_trace_still_gets_replica_table(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        lines = label_replica(
            _sample_obs().trace_lines(meta={"replica": "seed-7/a"}), "seed-7/a"
        )
        path = tmp_path / "plain.jsonl"
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8"
        )
        assert main(["summarize", "--sweep", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no fleet roll-up segment" in out
        assert "seed-7/a" in out


class TestCli:
    @pytest.fixture()
    def trace_path(self, tmp_path: Path) -> str:
        return str(write_trace(tmp_path / "trace.jsonl", _sample_obs(), meta={"seed": 7}))

    def test_summarize(self, trace_path: str, capsys: pytest.CaptureFixture) -> None:
        assert main(["summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "Top spans by total tick-span:" in out
        assert "honeypot-phase" in out
        assert "detection.classifier.memo{result=hit}" in out
        assert "core.scheduler.agents" in out
        assert "platform.actionlog.batch_fill" in out

    def test_summarize_missing_file_is_an_error(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["summarize", "definitely/not/a/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_validate_good_and_bad(
        self, trace_path: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        assert main(["validate", trace_path]) == 0
        assert "ok (3 spans)" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header"}\n', encoding="utf-8")
        assert main(["validate", trace_path, str(bad)]) == 1

    def test_diff_identical_traces(
        self, trace_path: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        other = str(write_trace(tmp_path / "other.jsonl", _sample_obs(), meta={"seed": 7}))
        assert main(["diff", trace_path, other]) == 0
        assert "traces are equivalent" in capsys.readouterr().out

    def test_diff_value_changes_are_reported_not_fatal(
        self, trace_path: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        changed_obs = _sample_obs()
        changed_obs.counter("detection.classifier.memo", result="hit").inc(5)
        changed = str(write_trace(tmp_path / "changed.jsonl", changed_obs))
        assert main(["diff", trace_path, changed]) == 0
        out = capsys.readouterr().out
        assert "~ metric detection.classifier.memo{result=hit} value 10 -> 15" in out

    def test_diff_lost_coverage_exits_nonzero(
        self, trace_path: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        smaller = Observability(enabled=True)
        with smaller.span("honeypot-phase"):
            pass
        new = str(write_trace(tmp_path / "new.jsonl", smaller))
        assert main(["diff", trace_path, new]) == 1
        out = capsys.readouterr().out
        assert "- span measurement-window" in out
        assert "coverage regression" in out

    def test_diff_compares_every_replica_segment(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        """Two fleet-merged traces that differ only in an earlier
        replica's counter are not equivalent; the change names it."""

        def merged(path: Path, first_count: int) -> str:
            lines = []
            for replica, count in (("a", first_count), ("b", 1)):
                obs = Observability(enabled=True)
                obs.counter("fleet.work").inc(count)
                lines += label_replica(obs.trace_lines(meta={"replica": replica}), replica)
            path.write_text(render_trace(lines), encoding="utf-8")
            return str(path)

        old = merged(tmp_path / "old.jsonl", 1)
        new = merged(tmp_path / "new.jsonl", 2)
        assert main(["diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "~ metric fleet.work [replica a] value 1 -> 2" in out
        assert "[replica b]" not in out
        assert "traces are equivalent" not in out
        assert main(["diff", old, old]) == 0
        assert "traces are equivalent" in capsys.readouterr().out

    def test_diff_names_the_replica_of_a_lost_series(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        def merged(path: Path, replicas: tuple[str, ...]) -> str:
            lines = []
            for replica in replicas:
                obs = Observability(enabled=True)
                obs.counter("fleet.work").inc()
                lines += label_replica(obs.trace_lines(meta={"replica": replica}), replica)
            path.write_text(render_trace(lines), encoding="utf-8")
            return str(path)

        old = merged(tmp_path / "old.jsonl", ("a", "b"))
        new = merged(tmp_path / "new.jsonl", ("a",))
        assert main(["diff", old, new]) == 1
        assert "- metric fleet.work [replica b]" in capsys.readouterr().out

    def test_usage_error_exits_2(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
