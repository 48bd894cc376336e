"""Tests for the whole-program analyzer (repro.lint phase two).

Covers the project index itself (symbol tables, call graph, re-export
chasing, the RNG-returning fixpoint), the digest-keyed incremental
cache (invalidation on single-file edit, warm-run operation counts,
corruption tolerance), determinism of the JSON report across runs and
cache states, the per-rule fixture corpus under
``tests/fixtures/lint/wp/``, the seeded mutation checks from the
acceptance criteria, and the new CLI surface
(``--whole-program``/``--changed-only``/``--stats``/baselines).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.lint import (
    all_project_rules,
    build_index,
    changed_files,
    lint_whole_program,
    project_rule_ids,
    render_json,
    rule_ids,
    select_project_rules,
)
from repro.obs.facade import Observability

REPO_ROOT = Path(__file__).resolve().parents[1]
WP_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint" / "wp"
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _counters(obs: Observability) -> dict:
    """The linter's own index telemetry, flattened to name -> value."""
    snapshot = obs.metrics.snapshot()
    return {
        entry["name"]: entry["value"]
        for entry in snapshot["metrics"]
        if entry["name"].startswith("lint.index.")
    }


def _rules_fired(case: str) -> list:
    return [
        (finding.rule, Path(finding.path).name, finding.line)
        for finding in lint_whole_program([WP_FIXTURES / case])
    ]


def _cli_env() -> dict:
    src = str(REPO_ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")  # repro-lint: ignore[DET006] -- propagating the runner's import path to a child process, not reading configuration
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),  # repro-lint: ignore[DET006] -- child needs the interpreter's PATH, not a behavior knob
        "PYTHONPATH": src if not inherited else os.pathsep.join([src, inherited]),
    }


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_cli_env(),
        timeout=120,
    )


class TestProjectIndex:
    def test_symbol_table_and_imports(self):
        index = build_index([WP_FIXTURES / "api003"])
        facts = index.facts_for_module("repro.aas.dirty")
        assert facts is not None
        assert facts.imports["derive_rng"] == "repro.util.rng.derive_rng"
        assert facts.imports["random"] == "random"
        assert "repro.util.rng" in facts.repro_imports
        assert "_make_rng" in facts.functions
        assert facts.functions["_make_rng"].returns_rng_direct
        assert facts.functions["sample"].params == ("count", "rng")
        shim = index.facts_for_module("repro.util.rng")
        assert shim is not None
        assert shim.constants["RNG_ROOTS"] == ["derive_rng", "SeedSequenceFactory"]

    def test_call_graph_records_resolved_callees(self):
        index = build_index([WP_FIXTURES / "api003"])
        facts = index.facts_for_module("repro.aas.dirty")
        toplevel = set(facts.calls["<module>"])
        assert "random.Random" in toplevel
        assert "repro.util.rng.derive_rng" in toplevel
        assert "repro.aas.dirty._make_rng" in toplevel

    def test_rng_fixpoint_reaches_laundering_helpers(self):
        index = build_index([WP_FIXTURES / "api003"])
        producers = index.rng_returning()
        assert "repro.aas.dirty._make_rng" in producers
        assert "repro.util.rng.derive_rng" in index.rng_roots()
        assert "repro.util.rng.SeedSequenceFactory" in index.rng_roots()

    def test_class_index_and_attribute_edges(self):
        index = build_index([WP_FIXTURES / "snap"])
        hit = index.class_facts("repro.fleet.spec.ReplicaSpec")
        assert hit is not None
        _, spec = hit
        assert spec.attr_types["payload"] == ("repro.fleet.spec.BadState",)
        _, bad = index.class_facts("repro.fleet.spec.BadState")
        assert bad.has_getstate and not bad.has_setstate

    def test_reexport_chasing_through_package_init(self):
        index = build_index([WP_FIXTURES / "obs002"])
        resolved = index.resolve_export("repro.platform.Tracker")
        assert resolved == "repro.platform.counted.Tracker"

    def test_instrument_attrs_are_project_wide(self):
        index = build_index([WP_FIXTURES / "obs002"])
        assert "_hits" in index.instrument_attrs()


class TestIndexCache:
    def _copy_fixture(self, tmp_path: Path, case: str = "api003") -> Path:
        target = tmp_path / case
        shutil.copytree(WP_FIXTURES / case, target)
        return target

    def test_cold_then_warm_counters(self, tmp_path):
        corpus = self._copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        cold_obs = Observability(enabled=True)
        build_index([corpus], cache_path=cache, obs=cold_obs)
        cold = _counters(cold_obs)
        assert cold["lint.index.files"] > 0
        assert cold["lint.index.parses"] == cold["lint.index.files"]
        assert cold["lint.index.cache_hits"] == 0

        warm_obs = Observability(enabled=True)
        build_index([corpus], cache_path=cache, obs=warm_obs)
        warm = _counters(warm_obs)
        assert warm["lint.index.cache_hits"] == cold["lint.index.files"]
        assert warm["lint.index.parses"] == 0
        # the acceptance bound, stated in operation counts: a warm run
        # performs under 25% of the cold run's parse work
        assert warm["lint.index.parses"] <= 0.25 * cold["lint.index.parses"]

    def test_single_file_edit_invalidates_only_that_entry(self, tmp_path):
        corpus = self._copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        build_index([corpus], cache_path=cache)
        edited = corpus / "repro" / "aas" / "dirty.py"
        edited.write_text(edited.read_text() + "\n# touched\n")

        obs = Observability(enabled=True)
        build_index([corpus], cache_path=cache, obs=obs)
        counts = _counters(obs)
        assert counts["lint.index.parses"] == 1
        assert counts["lint.index.cache_hits"] == counts["lint.index.files"] - 1

    def test_changed_files_reports_digest_drift(self, tmp_path):
        corpus = self._copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        assert len(changed_files([corpus], cache)) == 2  # cold: everything
        build_index([corpus], cache_path=cache)
        assert changed_files([corpus], cache) == []
        edited = corpus / "repro" / "util" / "rng.py"
        edited.write_text(edited.read_text() + "\n# drift\n")
        assert changed_files([corpus], cache) == [edited]

    def test_corrupt_cache_degrades_to_full_parse(self, tmp_path):
        corpus = self._copy_fixture(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json at all")
        obs = Observability(enabled=True)
        index = build_index([corpus], cache_path=cache, obs=obs)
        assert index.facts_for_module("repro.aas.dirty") is not None
        counts = _counters(obs)
        assert counts["lint.index.parses"] == counts["lint.index.files"]
        # and the rebuilt cache is usable afterwards
        warm_obs = Observability(enabled=True)
        build_index([corpus], cache_path=cache, obs=warm_obs)
        assert _counters(warm_obs)["lint.index.parses"] == 0

    def test_findings_json_is_byte_identical_across_runs_and_cache_states(self, tmp_path):
        corpus = self._copy_fixture(tmp_path, case="snap")
        cache = tmp_path / "cache.json"
        cold = render_json(lint_whole_program([corpus], cache_path=cache))
        warm = render_json(lint_whole_program([corpus], cache_path=cache))
        uncached = render_json(lint_whole_program([corpus]))
        assert cold == warm == uncached
        assert json.loads(cold)["count"] > 0


class TestRuleFixtures:
    def test_api003_positives_negatives_suppression(self):
        fired = _rules_fired("api003")
        lines = [line for rule, name, line in fired if rule == "API003" and name == "dirty.py"]
        # ctor, laundered global x2, default arg — and nothing else
        assert len(lines) == 4
        assert {rule for rule, _, _ in fired} == {"API003"}
        source = (WP_FIXTURES / "api003" / "repro" / "aas" / "dirty.py").read_text()
        suppressed_line = source.splitlines().index("QUIET = random.Random(9)  # repro-lint: ignore[API003] -- fixture: suppression path") + 1
        assert suppressed_line not in lines

    def test_snap_family_coverage(self):
        fired = _rules_fired("snap")
        by_rule = {}
        for rule, name, line in fired:
            by_rule.setdefault(rule, []).append((name, line))
        assert len(by_rule["SNAP001"]) == 3  # registry lambda, spec arg, submit
        assert len(by_rule["SNAP002"]) == 2  # partial + call result
        assert by_rule["SNAP003"] == [("spec.py", 4)]  # BadState only

    def test_obs002_positives_negatives_suppression(self):
        fired = _rules_fired("obs002")
        assert [rule for rule, _, _ in fired] == ["OBS002", "OBS002"]
        source = (WP_FIXTURES / "obs002" / "repro" / "core" / "reader.py").read_text()
        lines = {line for _, _, line in fired}
        enum_line = source.splitlines().index("    return entry.kind.value") + 1
        assert enum_line not in lines

    def test_every_wp_fixture_package_is_dirty(self):
        for case_dir in sorted(WP_FIXTURES.iterdir()):
            if case_dir.is_dir():
                assert _rules_fired(case_dir.name), f"{case_dir.name} unexpectedly clean"


class TestSeededMutations:
    """Acceptance criterion: injected regressions must be caught."""

    def _mutated_tree(self, tmp_path: Path) -> Path:
        target = tmp_path / "repro"
        shutil.copytree(
            SRC_REPRO,
            target,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return target

    def _whole_program_rules(self, tree: Path) -> set:
        return {finding.rule for finding in lint_whole_program([tree])}

    def test_ambient_rng_in_aas_is_caught_by_api003(self, tmp_path):
        tree = self._mutated_tree(tmp_path)
        victim = sorted((tree / "aas").glob("*.py"))[-1]
        victim.write_text(
            victim.read_text() + "\nimport random\n_AMBIENT = random.Random(1234)\n"
        )
        assert "API003" in self._whole_program_rules(tree)

    def test_lambda_in_fleet_arm_is_caught_by_snap001(self, tmp_path):
        tree = self._mutated_tree(tmp_path)
        arms = tree / "fleet" / "arms.py"
        arms.write_text(
            arms.read_text() + '\nARMS["mutant"] = lambda study, options: {}\n'
        )
        assert "SNAP001" in self._whole_program_rules(tree)

    def test_metrics_read_in_core_is_caught_by_obs002(self, tmp_path):
        tree = self._mutated_tree(tmp_path)
        study = tree / "core" / "study.py"
        study.write_text(
            study.read_text()
            + "\n\ndef _peek_metrics(obs):\n    return obs.metrics.snapshot()\n"
        )
        assert "OBS002" in self._whole_program_rules(tree)

    def test_unmutated_copy_stays_clean(self, tmp_path):
        tree = self._mutated_tree(tmp_path)
        assert self._whole_program_rules(tree) == set()


class TestProjectRegistry:
    def test_project_ids_unique_and_disjoint_from_per_file_ids(self):
        ids = project_rule_ids()
        assert len(ids) == len(set(ids))
        assert set(ids) == {"API003", "SNAP001", "SNAP002", "SNAP003", "OBS002"}
        assert not set(ids) & set(rule_ids())

    def test_select_project_rules(self):
        rules = select_project_rules(["SNAP001", "OBS002"])
        assert [rule.rule_id for rule in rules] == ["SNAP001", "OBS002"]
        try:
            select_project_rules(["NOPE999"])
        except ValueError as exc:
            assert "NOPE999" in str(exc)
        else:
            raise AssertionError("unknown project rule id accepted")

    def test_every_project_rule_has_id_and_summary(self):
        for rule in all_project_rules():
            assert rule.rule_id and rule.summary


class TestWholeProgramCli:
    def test_whole_program_flag_runs_project_rules(self, tmp_path):
        result = run_cli(
            str(WP_FIXTURES / "snap"), "--whole-program", "--cache", str(tmp_path / "c.json")
        )
        assert result.returncode == 1
        assert "SNAP001" in result.stdout
        assert "SNAP003" in result.stdout
        assert "GoodState" not in result.stdout
        assert "PlainState" not in result.stdout

    def test_project_rule_selection_requires_whole_program(self):
        result = run_cli("src", "--select", "SNAP001")
        assert result.returncode == 2
        assert "--whole-program" in result.stderr

    def test_select_partitions_across_registries(self, tmp_path):
        result = run_cli(
            str(WP_FIXTURES / "api003"),
            "--whole-program",
            "--select",
            "API003",
            "--cache",
            str(tmp_path / "c.json"),
        )
        assert result.returncode == 1
        assert "API003" in result.stdout
        assert "DET001" not in result.stdout

    def test_stats_reports_cache_counters(self, tmp_path):
        cache = str(tmp_path / "c.json")
        cold = run_cli("src/repro/lint", "--whole-program", "--stats", "--cache", cache)
        assert "lint.index.files" in cold.stderr
        assert "lint.index.parses" in cold.stderr
        warm = run_cli("src/repro/lint", "--whole-program", "--stats", "--cache", cache)
        assert "lint.index.parses = 0" in warm.stderr

    def test_changed_only_short_circuits_on_warm_cache(self, tmp_path):
        cache = str(tmp_path / "c.json")
        first = run_cli("src/repro/lint", "--cache", cache, "--whole-program")
        assert first.returncode == 0
        second = run_cli("src/repro/lint", "--cache", cache, "--changed-only")
        assert second.returncode == 0
        assert "no files changed" in second.stderr

    def test_baseline_roundtrip_gates_only_new_findings(self, tmp_path):
        baseline = str(tmp_path / "baseline.json")
        cache = str(tmp_path / "c.json")
        wrote = run_cli(
            str(WP_FIXTURES / "snap"),
            "--whole-program",
            "--cache",
            cache,
            "--write-baseline",
            baseline,
        )
        assert wrote.returncode == 0
        gated = run_cli(
            str(WP_FIXTURES / "snap"),
            "--whole-program",
            "--cache",
            cache,
            "--baseline",
            baseline,
        )
        assert gated.returncode == 0
        assert "0 findings" in gated.stdout

    def test_list_rules_includes_project_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in project_rule_ids():
            assert rule_id in result.stdout
        assert "[whole-program]" in result.stdout
