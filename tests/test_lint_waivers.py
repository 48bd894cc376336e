"""Tests for module-scoped lint waivers (repro.lint.waivers).

The load-bearing property is containment: the DET003 waiver for the
wall-clock module must silence the rule in ``repro.obs.walltime`` and
nowhere else — not in sibling modules or packages, not in lookalike
module names, not for other rules inside ``repro.obs.walltime`` itself.
"""

from __future__ import annotations

import pytest

from repro.lint.cli import main
from repro.lint.engine import lint_source
from repro.lint.waivers import WAIVERS, Waiver, find_waiver

WALL_CLOCK_SOURCE = "import time\n\n\ndef stamp():\n    return time.perf_counter()\n"


def _rules_found(source: str, path: str) -> list[str]:
    return [finding.rule for finding in lint_source(source, path)]


class TestScoping:
    def test_obs_walltime_is_waived_for_wall_clock(self) -> None:
        assert _rules_found(WALL_CLOCK_SOURCE, "src/repro/obs/walltime.py") == []

    def test_waiver_does_not_leak_to_other_packages(self) -> None:
        for path in (
            "src/repro/core/study.py",
            "src/repro/analysis/revenue.py",
            "src/repro/platform/actions.py",
            "src/repro/util/timeutils.py",
        ):
            assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, path), path

    def test_waiver_does_not_cover_lookalike_modules(self) -> None:
        # "repro.obs.walltimex" shares the prefix string but not the subtree
        assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, "src/repro/obs/walltimex.py")

    def test_waiver_is_rule_specific(self) -> None:
        # DET001 (stdlib random) is NOT waived for the wall-clock module
        source = "import random\n"
        assert "DET001" in _rules_found(source, "src/repro/obs/walltime.py")

    def test_files_outside_the_package_are_never_waived(self) -> None:
        assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, "scripts/loose_script.py")

    def test_obs_walltime_waiver_stops_at_the_module(self) -> None:
        # the waiver names repro.obs.walltime, not the whole obs package
        for path in (
            "src/repro/obs/metrics.py",
            "src/repro/obs/spans.py",
            "src/repro/obs/trace.py",
        ):
            assert "DET003" in _rules_found(WALL_CLOCK_SOURCE, path), path


class TestWaiverTable:
    def test_standing_waivers_are_justified(self) -> None:
        for waiver in WAIVERS:
            assert waiver.rule
            assert waiver.module_prefix.startswith("repro.")
            assert len(waiver.reason) > 20  # a real sentence, not a stub

    def test_covers_semantics(self) -> None:
        waiver = Waiver(rule="DET003", module_prefix="repro.obs.walltime", reason="x" * 30)
        assert waiver.covers("DET003", "repro.obs.walltime")
        assert waiver.covers("DET003", "repro.obs.walltime.sub")
        assert not waiver.covers("DET003", "repro.obs.walltimex")
        assert not waiver.covers("DET003", "repro.obs")
        assert not waiver.covers("DET003", "repro.core.study")
        assert not waiver.covers("DET001", "repro.obs.walltime")
        assert not waiver.covers("DET003", None)

    def test_find_waiver(self) -> None:
        assert find_waiver("DET003", "repro.obs.walltime") is not None
        assert find_waiver("DET003", "repro.obs.walltimex") is None
        assert find_waiver("DET003", "repro.core.study") is None
        assert find_waiver("DET001", "repro.obs.walltime") is None
        assert find_waiver("DET003", None) is None


def test_cli_lists_waivers(capsys: pytest.CaptureFixture) -> None:
    assert main(["--list-waivers"]) == 0
    out = capsys.readouterr().out
    assert "DET003" in out
    assert "repro.obs.walltime" in out
