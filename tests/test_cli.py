"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import PRESETS, build_parser, cmd_list_presets, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_study_defaults(self):
        args = build_parser().parse_args(["run-study"])
        assert args.preset == "tiny"
        assert args.seed == 42
        assert args.measurement_days == 0
        assert args.verbose is False
        assert args.trace == ""

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["run-study", "--verbose", "--trace", "out/trace.jsonl"]
        )
        assert args.verbose is True
        assert args.trace == "out/trace.jsonl"

    def test_preset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-study", "--preset", "gigantic"])

    def test_interventions_args(self):
        args = build_parser().parse_args(
            ["run-interventions", "--preset", "small", "--narrow-days", "20"]
        )
        assert args.narrow_days == 20
        assert args.preset == "small"


class TestListPresets:
    def test_lists_all(self):
        out = io.StringIO()
        args = build_parser().parse_args(["list-presets"])
        assert cmd_list_presets(args, out) == 0
        text = out.getvalue()
        for preset in PRESETS:
            assert preset in text

    def test_main_entry(self, capsys):
        assert main(["list-presets"]) == 0
        captured = capsys.readouterr()
        assert "paper" in captured.out


@pytest.mark.slow
class TestRunStudy:
    def test_run_study_tiny_produces_all_tables(self, tmp_path):
        output = tmp_path / "report.txt"
        code = main(
            [
                "run-study",
                "--preset",
                "tiny",
                "--seed",
                "5",
                "--measurement-days",
                "6",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        for marker in ("Table 1", "Table 5", "Table 9", "Table 11", "Figure 2", "Figures 3-4"):
            assert marker in text

    def test_run_study_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.obs import read_trace_lines, validate_trace

        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "run-study",
                "--preset",
                "tiny",
                "--seed",
                "5",
                "--measurement-days",
                "4",
                "--output",
                str(tmp_path / "report.txt"),
                "--verbose",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        lines = read_trace_lines(trace)
        assert validate_trace(lines) == []
        header = lines[0]
        assert header["meta"] == {"command": "run-study", "preset": "tiny", "seed": 5}
        # CLI traces carry the opt-in wall-clock durations
        spans = [line for line in lines if line.get("kind") == "span"]
        assert spans and all("wall_s" in span for span in spans)


class TestRunStudyFleet:
    def test_seeds_run_a_fleet_matching_the_serial_report(self, tmp_path):
        from repro.obs import read_trace_lines, split_segments, validate_trace

        serial = tmp_path / "serial.txt"
        assert main(
            ["run-study", "--preset", "tiny", "--seed", "5",
             "--measurement-days", "2", "--output", str(serial)]
        ) == 0

        merged = tmp_path / "fleet.txt"
        trace = tmp_path / "fleet.jsonl"
        assert main(
            ["run-study", "--preset", "tiny", "--seeds", "5,6",
             "--measurement-days", "2", "--output", str(merged),
             "--trace", str(trace)]
        ) == 0

        text = merged.read_text()
        assert "=== seed-5/report (seed 5) ===" in text
        assert "=== seed-6/report (seed 6) ===" in text
        # a fleet replica's report is byte-identical to the serial run
        section = text.split("=== seed-6/report")[0]
        assert serial.read_text().strip() in section

        lines = read_trace_lines(trace)
        assert validate_trace(lines) == []
        segments = split_segments(lines)
        assert [seg[0]["replica"] for seg in segments] == ["seed-5/report", "seed-6/report"]

    def test_seeds_validation(self, capsys):
        for bad in ("", "1,two", "3,3"):
            with pytest.raises(SystemExit):
                main(["run-study", "--preset", "tiny", "--seeds", bad or ","])


class TestSweep:
    def _write_manifest(self, tmp_path, **overrides):
        import json

        document = {
            "schema_version": 1,
            "name": "cli-smoke",
            "preset": "tiny",
            "seeds": [5],
            "honeypot_days": [2],
            "measurement_days": [1],
            "arms": [{"arm": "standard"}],
        }
        document.update(overrides)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_sweep_runs_merges_and_traces(self, tmp_path, capsys):
        import json

        from repro.fleet import FLEET_TRACE_REPLICA
        from repro.obs import read_trace_lines, split_segments, validate_trace

        manifest = self._write_manifest(tmp_path)
        payload_path = tmp_path / "payload.json"
        trace_path = tmp_path / "sweep.jsonl"
        store_root = tmp_path / "store"
        assert main(
            ["sweep", manifest, "--output", str(payload_path),
             "--trace", str(trace_path), "--store", str(store_root)]
        ) == 0
        err = capsys.readouterr().err
        assert "sweep cli-smoke: 1 replicas, phase builds 3/3" in err

        payload = json.loads(payload_path.read_text())
        assert payload["replica_count"] == 1
        assert payload["replicas"][0]["name"] == "seed-5/hp2/md1/standard"
        assert payload["snapshot"]["strategy"] == "tree"
        assert payload["snapshot"]["store"]["writes"] == 3

        lines = read_trace_lines(trace_path)
        assert validate_trace(lines) == []
        segments = split_segments(lines)
        assert segments[0][0]["replica"] == FLEET_TRACE_REPLICA
        assert [seg[0]["replica"] for seg in segments[1:]] == ["seed-5/hp2/md1/standard"]

        # a warm rerun against the same store rebuilds nothing and the
        # replica payloads are unchanged
        warm_path = tmp_path / "warm.json"
        assert main(
            ["sweep", manifest, "--output", str(warm_path), "--store", str(store_root)]
        ) == 0
        capsys.readouterr()
        warm = json.loads(warm_path.read_text())
        assert warm["snapshot"]["prefix_builds"] == 0
        assert warm["snapshot"]["build_cost_avoided_frac"] == 1.0
        assert all(replica["prefix_reused"] for replica in warm["replicas"])
        assert [replica["payload"] for replica in warm["replicas"]] == [
            replica["payload"] for replica in payload["replicas"]
        ]

    def test_sweep_rejects_bad_manifest(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path, preset="galactic")
        with pytest.raises(SystemExit, match="unknown preset"):
            main(["sweep", manifest])

    def test_sweep_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "manifest.json"])
        assert not hasattr(args, "strategy")
        assert args.store == ""
        assert args.store_max_bytes is None
        assert args.workers is None
