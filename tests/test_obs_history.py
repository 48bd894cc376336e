"""Tests for the committed performance record and `repro.obs regress`."""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.obs.cli import main

ROOT = Path(__file__).resolve().parents[1]
HISTORY = ROOT / "BENCH_HISTORY.jsonl"


def _regress(path: Path, capsys: pytest.CaptureFixture[str]) -> Tuple[int, str]:
    code = main(["regress", str(path)])
    return code, capsys.readouterr().out


def _with_record(tmp_path: Path, mutate: Callable[[Dict[str, object]], None]) -> Tuple[Path, int]:
    """A copy of the committed history plus one record, and that record's line.

    The new record repeats the last record's ``change`` medians as both
    its parent and its change, so it passes every check until ``mutate``
    edits it.
    """
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    lines = HISTORY.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    record: Dict[str, object] = {
        "pr": last["pr"] + 1,
        "git_sha": "0" * 40,
        "claim": None,
        "medians": {
            key: {"parent": entry["change"], "change": entry["change"], "unit": entry["unit"]}
            for key, entry in last["medians"].items()
        },
    }
    mutate(record)
    path = tmp_path / "BENCH_HISTORY.jsonl"
    path.write_text("\n".join(lines + [json.dumps(record)]) + "\n", encoding="utf-8")
    return path, len(lines) + 1


def _medians(record: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    medians = record["medians"]
    assert isinstance(medians, dict)
    return medians


class TestCommittedHistory:
    def test_committed_file_passes(self, capsys: pytest.CaptureFixture[str]) -> None:
        code, out = _regress(HISTORY, capsys)
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_records_are_consecutive_prs_with_full_shas(self) -> None:
        # records follow PR order; a PR that claims no speed change may
        # add no record (PRs 26-33 added none), so numbers can skip
        records = [json.loads(line) for line in HISTORY.read_text().splitlines()]
        prs = [record["pr"] for record in records]
        assert prs[0] == 13
        assert all(a < b for a, b in zip(prs, prs[1:]))
        for record in records:
            sha = record["git_sha"]
            assert len(sha) == 40 and int(sha, 16) >= 0

    def test_unchanged_appended_record_passes(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path, _ = _with_record(tmp_path, lambda record: None)
        code, out = _regress(path, capsys)
        assert code == 0, out

    def test_empty_file_passes_with_a_note(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        path = tmp_path / "BENCH_HISTORY.jsonl"
        path.write_text("", encoding="utf-8")
        code, out = _regress(path, capsys)
        assert code == 0
        assert "note:" in out and "no history records" in out


class TestRegressFailures:
    def test_halved_throughput_fails_against_parent(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        def halve(record: Dict[str, object]) -> None:
            entry = _medians(record)["study/actions_per_s"]
            entry["change"] = float(entry["change"]) / 2

        path, line = _with_record(tmp_path, halve)
        code, out = _regress(path, capsys)
        assert code == 1
        assert f"{path}:{line}: study/actions_per_s: change worse than parent beyond 20%" in out

    def test_memory_growth_fails_on_a_lower_is_better_metric(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        def grow(record: Dict[str, object]) -> None:
            entry = _medians(record)["interventions/peak_rss_mb"]
            entry["change"] = float(entry["change"]) * 1.11

        path, line = _with_record(tmp_path, grow)
        code, out = _regress(path, capsys)
        assert code == 1
        assert f"{path}:{line}: interventions/peak_rss_mb: change worse than parent" in out

    def test_memory_growth_within_the_bound_passes(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        def grow(record: Dict[str, object]) -> None:
            entry = _medians(record)["interventions/peak_rss_mb"]
            entry["change"] = float(entry["change"]) * 1.09

        path, _ = _with_record(tmp_path, grow)
        code, out = _regress(path, capsys)
        assert code == 0, out

    def test_missing_metric_fails(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path, line = _with_record(tmp_path, lambda record: _medians(record).pop("sweep/setup_s"))
        code, out = _regress(path, capsys)
        assert code == 1
        assert f"{path}:{line}: sweep/setup_s: missing" in out

    @pytest.mark.parametrize("value", ["fast", 0, -1.0, None, True])
    def test_non_numeric_or_non_positive_value_fails(
        self, value: object, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        def spoil(record: Dict[str, object]) -> None:
            _medians(record)["study/setup_s"]["parent"] = value

        path, line = _with_record(tmp_path, spoil)
        code, out = _regress(path, capsys)
        assert code == 1
        assert f"{path}:{line}: study/setup_s: parent and change must be positive" in out

    def test_unmet_claim_fails(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        def claim(record: Dict[str, object]) -> None:
            record["claim"] = {"metric": "actions_per_s", "workload": "interventions"}

        path, line = _with_record(tmp_path, claim)
        code, out = _regress(path, capsys)
        assert code == 1
        assert f"{path}:{line}: interventions/actions_per_s: claimed metric did not improve" in out

    def test_met_claim_passes(self, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
        def claim(record: Dict[str, object]) -> None:
            record["claim"] = {"metric": "setup_s", "workload": "sweep"}
            entry = _medians(record)["sweep/setup_s"]
            entry["change"] = float(entry["change"]) * 0.9

        path, _ = _with_record(tmp_path, claim)
        code, out = _regress(path, capsys)
        assert code == 0, out

    def test_drop_between_records_fails(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        # parent and change agree, so only the check against the previous
        # record's change can see the drop
        def drop(record: Dict[str, object]) -> None:
            entry = _medians(record)["sweep/actions_per_s"]
            slower = float(entry["change"]) * 0.7
            entry["parent"] = entry["change"] = slower

        path, line = _with_record(tmp_path, drop)
        code, out = _regress(path, capsys)
        assert code == 1
        assert (
            f"{path}:{line}: sweep/actions_per_s: change worse than the previous record" in out
        )
        assert "worse than parent" not in out

    def test_unparseable_line_fails(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        path = tmp_path / "BENCH_HISTORY.jsonl"
        path.write_text(HISTORY.read_text() + "{not json\n", encoding="utf-8")
        code, out = _regress(path, capsys)
        assert code == 1
        lines = len(HISTORY.read_text().splitlines())
        assert f"{path}:{lines + 1}: not a record with medians" in out

    def test_missing_manifest_is_an_error(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        path = tmp_path / "BENCH_HISTORY.jsonl"
        shutil.copy(HISTORY, path)
        code, out = _regress(path, capsys)
        assert code == 1
        assert "BENCHMARK.json" in out
