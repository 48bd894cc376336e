"""Tests for the repro.bench harness, schema, and CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.harness import summarize, time_interleaved, time_repeated
from repro.bench.scenarios import SCENARIOS, bench_file_name
from repro.bench.schema import SCHEMA_VERSION, validate_payload


def _valid_payload() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "tick_loop",
        "mode": "smoke",
        "settings": {"seed": 42},
        "results": [
            {
                "name": "case-a",
                "stats": {
                    "warmup": 1,
                    "repetitions": 3,
                    "best_s": 0.5,
                    "runnerup_s": 0.52,
                    "mean_s": 0.6,
                    "median_s": 0.55,
                    "stdev_s": 0.05,
                    "cv": 0.083,
                },
                "peak_rss_kb": 120000,
            }
        ],
        "derived": {
            "speedup_tree_vs_flat": {"value": 2.0, "noise_cv": 0.083, "noise_floor": False}
        },
    }


class TestHarness:
    def test_warmup_excluded_from_samples(self) -> None:
        calls: list[int] = []

        def make_case():
            index = len(calls)
            return lambda: calls.append(index)

        samples = time_repeated(make_case, warmup=2, repetitions=3)
        assert len(samples) == 3
        assert calls == [0, 1, 2, 3, 4]  # a fresh case ran every time
        assert all(s >= 0.0 for s in samples)

    def test_interleaved_round_robin(self) -> None:
        order: list[str] = []
        cases = {
            "a": lambda: (lambda: order.append("a")),
            "b": lambda: (lambda: order.append("b")),
        }
        samples = time_interleaved(cases, warmup=1, repetitions=2)
        assert order == ["a", "b", "a", "b", "a", "b"]  # round-robin, not back-to-back
        assert {name: len(s) for name, s in samples.items()} == {"a": 2, "b": 2}

    def test_zero_repetitions_rejected(self) -> None:
        with pytest.raises(ValueError):
            time_repeated(lambda: (lambda: None), warmup=0, repetitions=0)

    def test_summarize_median_odd_and_even(self) -> None:
        odd = summarize([3.0, 1.0, 2.0], warmup=1)
        assert (odd.best_s, odd.runnerup_s, odd.median_s, odd.mean_s) == (1.0, 2.0, 2.0, 2.0)
        even = summarize([4.0, 1.0, 2.0, 3.0], warmup=0)
        assert even.median_s == 2.5
        assert even.repetitions == 4

    def test_summarize_single_sample_runnerup_is_best(self) -> None:
        stats = summarize([0.7], warmup=0)
        assert stats.runnerup_s == stats.best_s == 0.7

    def test_summarize_empty_rejected(self) -> None:
        with pytest.raises(ValueError):
            summarize([], warmup=0)

    def test_summarize_dispersion_fields(self) -> None:
        stats = summarize([1.0, 2.0, 3.0], warmup=0)
        assert stats.stdev_s == pytest.approx(1.0)  # sample stdev, n-1 denominator
        assert stats.cv == pytest.approx(0.5)
        assert stats.as_dict()["stdev_s"] == stats.stdev_s
        assert stats.as_dict()["cv"] == stats.cv

    def test_single_sample_has_zero_dispersion(self) -> None:
        stats = summarize([0.7], warmup=0)
        assert (stats.stdev_s, stats.cv) == (0.0, 0.0)


class TestSchema:
    def test_valid_payload_passes(self) -> None:
        assert validate_payload(_valid_payload()) == []

    def test_wrong_version_rejected(self) -> None:
        payload = _valid_payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in e for e in validate_payload(payload))

    def test_missing_benchmark_rejected(self) -> None:
        payload = _valid_payload()
        del payload["benchmark"]
        assert any("benchmark" in e for e in validate_payload(payload))

    def test_empty_results_rejected(self) -> None:
        payload = _valid_payload()
        payload["results"] = []
        assert any("results" in e for e in validate_payload(payload))

    def test_bad_stats_types_rejected(self) -> None:
        payload = _valid_payload()
        payload["results"][0]["stats"]["mean_s"] = "fast"
        assert any("mean_s" in e for e in validate_payload(payload))

    def test_bool_is_not_a_number(self) -> None:
        payload = _valid_payload()
        payload["results"][0]["stats"]["best_s"] = True
        assert any("best_s" in e for e in validate_payload(payload))

    def test_non_object_rejected(self) -> None:
        assert validate_payload([1, 2, 3]) != []

    def test_missing_dispersion_fields_rejected(self) -> None:
        for field in ("stdev_s", "cv", "runnerup_s"):
            payload = _valid_payload()
            del payload["results"][0]["stats"][field]
            assert any(field in e for e in validate_payload(payload))

    def test_missing_peak_rss_rejected(self) -> None:
        payload = _valid_payload()
        del payload["results"][0]["peak_rss_kb"]
        assert any("peak_rss_kb" in e for e in validate_payload(payload))

    def test_negative_peak_rss_rejected(self) -> None:
        payload = _valid_payload()
        payload["results"][0]["peak_rss_kb"] = -1
        assert any("peak_rss_kb" in e for e in validate_payload(payload))

    def test_bare_speedup_number_rejected(self) -> None:
        payload = _valid_payload()
        payload["derived"]["speedup_tree_vs_flat"] = 2.0
        assert any("speedup_tree_vs_flat" in e for e in validate_payload(payload))

    def test_speedup_without_noise_floor_rejected(self) -> None:
        payload = _valid_payload()
        del payload["derived"]["speedup_tree_vs_flat"]["noise_floor"]
        assert any("noise_floor" in e for e in validate_payload(payload))

    def test_non_speedup_derived_entries_are_free_form(self) -> None:
        payload = _valid_payload()
        payload["derived"]["snapshot"] = {"prefix_builds": 2}
        payload["derived"]["replica_payloads_match"] = True
        assert validate_payload(payload) == []

    def test_bad_mode_rejected(self) -> None:
        payload = _valid_payload()
        payload["mode"] = "quick"
        assert any("mode" in e for e in validate_payload(payload))

    def test_valid_observability_snapshot_accepted(self) -> None:
        payload = _valid_payload()
        payload["observability"] = {
            "schema_version": 1,
            "metrics": [
                {"name": "platform.actionlog.appends", "type": "counter", "labels": {}, "value": 9}
            ],
        }
        assert validate_payload(payload) == []

    def test_bad_observability_snapshot_rejected(self) -> None:
        payload = _valid_payload()
        payload["observability"] = {"schema_version": 1, "metrics": "nope"}
        assert any(e.startswith("observability:") for e in validate_payload(payload))


class TestCli:
    def test_list_scenarios(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(SCENARIOS)

    def test_unknown_scenario_is_usage_error(self, capsys: pytest.CaptureFixture) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["--only", "nope"])
        assert excinfo.value.code == 2

    def test_validate_good_and_bad_files(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        good = tmp_path / "BENCH_GOOD.json"
        good.write_text(json.dumps(_valid_payload()), encoding="utf-8")
        assert main(["--validate", str(good)]) == 0

        bad = tmp_path / "BENCH_BAD.json"
        payload = _valid_payload()
        payload["results"] = []
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--validate", str(good), str(bad)]) == 1

        broken = tmp_path / "BENCH_BROKEN.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["--validate", str(broken)]) == 1

    def test_smoke_run_emits_valid_file(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        assert main(["--smoke", "--only", "tick_loop", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / bench_file_name("tick_loop")
        assert path.exists()
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_payload(payload) == []
        assert payload["mode"] == "smoke"
        names = [result["name"] for result in payload["results"]]
        assert names == ["population-260"]
        assert all(result["ticks_per_s"] > 0 for result in payload["results"])
        # every scenario payload carries the timed study's obs snapshot
        snapshot = payload["observability"]
        appended = {
            entry["name"]: entry.get("value") for entry in snapshot["metrics"]
        }
        assert appended.get("platform.actionlog.appends", 0) > 0


def test_bench_file_name() -> None:
    assert bench_file_name("sweep") == "BENCH_SWEEP.json"
