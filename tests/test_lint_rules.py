"""Unit and integration tests for the ``repro.lint`` subsystem.

Every rule gets positive (fires), negative (stays silent), and
suppressed (waived per line) cases on small inline snippets; the
reporters' output schema and the CLI's exit codes are pinned against the
intentionally-dirty corpus in ``tests/fixtures/lint/``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import (
    JSON_SCHEMA_VERSION,
    PARSE_RULE,
    lint_paths,
    lint_source,
    parse_suppressions,
    render_json,
    render_text,
    rule_ids,
    select_rules,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: default lint target: a mid-stack module where every rule family is live
AAS_PATH = "src/repro/aas/sample.py"


def fired(source: str, path: str = AAS_PATH) -> list:
    """Rule ids firing on a dedented snippet pretending to live at ``path``."""
    return [finding.rule for finding in lint_source(textwrap.dedent(source), path)]


def _cli_env() -> dict:
    """Explicit child env so the CLI subprocess imports this repo's tree
    regardless of how pytest itself was launched."""
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


class TestDeterminismRules:
    def test_det001_flags_random_imports(self):
        assert "DET001" in fired("import random\n")
        assert "DET001" in fired("from random import choice\n")

    def test_det001_silent_on_lookalike_names(self):
        assert "DET001" not in fired("import randomness_toolkit\n")

    def test_det001_exempt_in_rng_shim(self):
        assert fired("import random\n", path="src/repro/util/rng.py") == []

    def test_det001_suppressed(self):
        snippet = "import random  # repro-lint: ignore[DET001] -- test waiver\n"
        assert fired(snippet) == []

    def test_det002_flags_numpy_global_state(self):
        assert "DET002" in fired("import numpy as np\nnp.random.seed(1)\n")
        assert "DET002" in fired("import numpy as np\nx = np.random.default_rng()\n")
        assert "DET002" in fired("from numpy.random import default_rng\n")

    def test_det002_allows_seeded_types(self):
        snippet = """
            import numpy as np
            from numpy.random import Generator

            def draw(rng: np.random.Generator) -> float:
                seq = np.random.SeedSequence([1, 2])
                return float(rng.random())
        """
        assert fired(snippet) == []

    def test_det002_exempt_in_rng_shim(self):
        snippet = "import numpy as np\nx = np.random.default_rng(3)\n"
        assert fired(snippet, path="src/repro/util/rng.py") == []

    def test_det003_flags_wall_clock(self):
        assert "DET003" in fired("import time\nt = time.time()\n")
        assert "DET003" in fired("import datetime\nd = datetime.datetime.now()\n")
        assert "DET003" in fired("from datetime import datetime\nd = datetime.utcnow()\n")
        assert "DET003" in fired("from time import perf_counter\n")

    def test_det003_silent_on_simclock_and_methods(self):
        snippet = """
            def elapsed(clock, start):
                return clock.now - start

            def local(obj):
                return obj.time()
        """
        assert fired(snippet) == []

    def test_det003_exempt_in_clock_shim(self):
        # OBS003 (probe-import confinement) still applies to the shim —
        # only the wall-clock *read* rule grants it an exemption
        snippet = "import time\nt = time.time()\n"
        assert "DET003" not in fired(snippet, path="src/repro/platform/clock.py")

    def test_det004_flags_entropy_uuids(self):
        assert "DET004" in fired("import uuid\nu = uuid.uuid4()\n")
        assert "DET004" in fired("from uuid import uuid4\n")

    def test_det004_silent_on_deterministic_uuid_api(self):
        snippet = """
            import uuid
            namespace = uuid.UUID("12345678-1234-5678-1234-567812345678")
            derived = uuid.uuid5(namespace, "label")
        """
        assert fired(snippet) == []

    def test_det005_flags_set_iteration(self):
        assert "DET005" in fired("for x in set(items):\n    use(x)\n")
        assert "DET005" in fired("pairs = [f(x) for x in {1, 2, 3}]\n")
        assert "DET005" in fired("ordered = list(set(labels))\n")

    def test_det005_silent_when_sorted_or_bound(self):
        snippet = """
            for x in sorted(set(items)):
                use(x)
            unique = set(items)
            count = len(set(items))
        """
        assert fired(snippet) == []

    def test_det006_flags_environment_reads(self):
        assert "DET006" in fired('import os\nv = os.environ["X"]\n')
        assert "DET006" in fired('import os\nv = os.getenv("X")\n')
        assert "DET006" in fired("from os import environ\n")

    def test_det006_exempt_in_config(self):
        snippet = 'import os\nv = os.getenv("X")\n'
        assert fired(snippet, path="src/repro/core/config.py") == []


class TestArchitectureRules:
    def test_arch001_platform_must_not_import_observers(self):
        snippet = "from repro.detection.signals import learn_signature\n"
        assert fired(snippet, path="src/repro/platform/sample.py") == ["ARCH001"]

    def test_arch001_behavior_must_not_import_detection(self):
        snippet = "import repro.detection.classifier\n"
        assert fired(snippet, path="src/repro/behavior/sample.py") == ["ARCH001"]

    def test_arch001_downward_imports_are_fine(self):
        snippet = """
            from repro.netsim.client import ClientEndpoint
            from repro.platform.models import AccountId
            from repro.util.rng import derive_rng
        """
        assert fired(snippet, path="src/repro/aas/sample.py") == []

    def test_arch001_core_composition_root_imports_everything(self):
        snippet = """
            from repro.detection.classifier import AASClassifier
            from repro.analysis.revenue import estimate
            from repro.interventions.policy import Policy
        """
        assert fired(snippet, path="src/repro/core/sample.py") == []

    def test_arch001_silent_outside_the_package(self):
        snippet = "from repro.detection.signals import learn_signature\n"
        assert fired(snippet, path="tests/test_sample.py") == []

    def test_arch002_observers_must_not_reach_service_internals(self):
        snippet = "from repro.aas.services.instalex import make_instalex\n"
        assert fired(snippet, path="src/repro/analysis/sample.py") == ["ARCH002"]
        assert fired(snippet, path="src/repro/detection/sample.py") == ["ARCH002"]

    def test_arch002_package_api_is_fine(self):
        snippet = "from repro.aas.services import make_instalex\n"
        assert fired(snippet, path="src/repro/analysis/sample.py") == []

    def test_arch002_builders_may_use_internals(self):
        snippet = "from repro.aas.services.instalex import make_instalex\n"
        assert fired(snippet, path="src/repro/honeypot/sample.py") == []

    def test_arch003_flags_star_imports(self):
        assert fired("from repro.platform import *\n", path="src/repro/aas/sample.py") == [
            "ARCH003"
        ]

    def test_arch003_silent_on_explicit_imports(self):
        snippet = "from repro.platform import InstagramPlatform\n"
        assert fired(snippet, path="src/repro/aas/sample.py") == []

    def test_arch004_process_machinery_confined_to_fleet(self):
        assert "ARCH004" in fired("import multiprocessing\n", path="src/repro/core/sample.py")
        assert "ARCH004" in fired("import pickle\n", path="src/repro/platform/sample.py")
        assert "ARCH004" in fired(
            "from concurrent.futures import ProcessPoolExecutor\n",
            path="src/repro/analysis/sample.py",
        )
        assert "ARCH004" in fired(
            "from multiprocessing.pool import Pool\n", path="src/repro/obs/sample.py"
        )

    def test_arch004_fleet_owns_the_machinery(self):
        snippet = """
            import pickle
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
        """
        assert fired(snippet, path="src/repro/fleet/runner.py") == []
        assert fired(snippet, path="src/repro/fleet/sample.py") == []

    def test_arch004_scratch_space_confined_to_fleet(self):
        # tempfile/shutil joined the banned set with the disk snapshot
        # store: scratch directories are fleet-owned filesystem state
        assert "ARCH004" in fired("import tempfile\n", path="src/repro/interventions/sample.py")
        assert "ARCH004" in fired(
            "from shutil import rmtree\n", path="src/repro/core/sample.py"
        )
        assert fired("import tempfile\nimport shutil\n", path="src/repro/fleet/store.py") == []

    def test_arch004_silent_on_lookalike_names_and_outside_the_package(self):
        assert "ARCH004" not in fired("import pickleball\n", path="src/repro/core/sample.py")
        assert "ARCH004" not in fired("import multiprocessing\n", path="tests/test_sample.py")
        assert "ARCH004" not in fired("import shutilities\n", path="src/repro/core/sample.py")

    def test_arch004_suppressed(self):
        snippet = (
            "import pickle  # repro-lint: ignore[ARCH004] -- test waiver\n"
        )
        assert fired(snippet, path="src/repro/core/sample.py") == []


class TestApiRules:
    def test_api001_observer_layers_must_not_mint_generators(self):
        snippet = """
            from repro.util.rng import derive_rng

            def summarize(events):
                rng = derive_rng(0, "summary")
                return rng.permutation(len(events))
        """
        for layer in ("analysis", "detection", "interventions"):
            findings = fired(snippet, path=f"src/repro/{layer}/sample.py")
            assert "API001" in findings, layer

    def test_api001_factory_construction_also_flagged(self):
        snippet = """
            from repro.util.rng import SeedSequenceFactory

            def resample(events, seed):
                seeds = SeedSequenceFactory(seed)
                return seeds.get("resample")
        """
        assert "API001" in fired(snippet, path="src/repro/analysis/sample.py")

    def test_api001_injected_rng_is_the_sanctioned_shape(self):
        snippet = """
            def summarize(events, rng):
                return rng.permutation(len(events))
        """
        assert fired(snippet, path="src/repro/analysis/sample.py") == []

    def test_api001_composition_root_may_derive(self):
        snippet = """
            from repro.util.rng import SeedSequenceFactory

            def build(seed):
                return SeedSequenceFactory(seed)
        """
        assert fired(snippet, path="src/repro/core/sample.py") == []

    def test_api002_rng_defaults_must_be_none(self):
        assert "API002" in fired("def f(events, rng=3):\n    return rng\n")
        kwonly = "def f(events, *, seeds=make()):\n    return seeds\n"
        assert "API002" in fired(kwonly)

    def test_api002_none_default_and_no_default_pass(self):
        snippet = """
            def f(events, rng):
                return rng

            def g(events, rng=None):
                return rng
        """
        assert fired(snippet) == []


class TestObservabilityRules:
    def test_obs001_flags_print_in_library_code(self):
        assert fired('print("sweep done")\n') == ["OBS001"]
        assert "OBS001" in fired(
            'import sys\nprint("progress", file=sys.stderr)\n',
            path="src/repro/core/sample.py",
        )

    def test_obs001_silent_in_console_owners(self):
        snippet = 'print("report line")\n'
        for path in (
            "src/repro/cli.py",
            "src/repro/lint/cli.py",
            "src/repro/obs/cli.py",
            "src/repro/obs/report.py",
        ):
            assert fired(snippet, path=path) == [], path

    def test_obs001_silent_outside_the_package(self):
        assert fired('print("debugging")\n', path="tests/test_sample.py") == []
        assert fired('print("hello")\n', path="scripts/loose_script.py") == []

    def test_obs001_silent_on_methods_and_lookalikes(self):
        snippet = """
            def report(printer):
                printer.print("fine: not the builtin")
                pprint(["also fine"])
        """
        assert fired(snippet) == []

    def test_obs001_suppressed(self):
        snippet = 'print("x")  # repro-lint: ignore[OBS001] -- test waiver\n'
        assert fired(snippet) == []

    def test_obs003_flags_host_probe_imports(self):
        assert "OBS003" in fired("import time\n")
        assert "OBS003" in fired("import resource\n")
        assert "OBS003" in fired("import time as t\n")
        assert "OBS003" in fired("from time import monotonic\n")
        assert "OBS003" in fired("from resource import getrusage\n")

    def test_obs003_fires_even_outside_the_package(self):
        # unlike OBS001, probe confinement covers fixtures and scripts too
        assert "OBS003" in fired("import time\n", path="scripts/loose_script.py")

    def test_obs003_silent_in_walltime_module(self):
        snippet = "import resource\nimport time\n"
        assert fired(snippet, path="src/repro/obs/walltime.py") == []

    def test_obs003_silent_on_lookalike_modules(self):
        assert "OBS003" not in fired("import timeit_helpers\n")
        assert "OBS003" not in fired("from mypkg.time import shim\n")
        assert "OBS003" not in fired("from . import time\n", path="src/repro/aas/sample.py")

    def test_obs003_suppressed(self):
        snippet = "import time  # repro-lint: ignore[OBS003] -- test waiver\n"
        assert fired(snippet) == []


class TestEngine:
    def test_unparseable_file_is_a_parse_finding(self):
        findings = lint_source("def broken(:\n", path=AAS_PATH)
        assert [finding.rule for finding in findings] == [PARSE_RULE]
        assert findings[0].line == 1

    def test_bare_ignore_waives_every_rule_on_the_line(self):
        snippet = "import random  # repro-lint: ignore -- test waiver\n"
        assert fired(snippet) == []

    def test_targeted_ignore_leaves_other_rules_live(self):
        snippet = (
            "import time\nimport uuid\n"
            "x = (time.time(), uuid.uuid4())  # repro-lint: ignore[DET003] -- test waiver\n"
        )
        # line 1's probe import fires OBS003; line 3's targeted waiver
        # silences DET003 there but leaves DET004 live
        assert fired(snippet) == ["OBS003", "DET004"]

    def test_suppression_inside_string_literal_is_inert(self):
        snippet = 'doc = "# repro-lint: ignore[DET001]"\nimport random\n'
        assert "DET001" in fired(snippet)

    def test_parse_suppressions_maps_lines_to_rule_sets(self):
        source = "a = 1  # repro-lint: ignore[DET001, DET003]\nb = 2\n"
        suppressions = parse_suppressions(source)
        assert suppressions == {1: frozenset({"DET001", "DET003"})}

    def test_rule_registry_is_unique_and_complete(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))
        for family in ("DET", "ARCH", "API", "OBS"):
            assert any(rule_id.startswith(family) for rule_id in ids), family

    def test_select_rules_rejects_unknown_ids(self):
        try:
            select_rules(["DET001", "NOPE999"])
        except ValueError as exc:
            assert "NOPE999" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_select_rules_limits_the_run(self):
        snippet = "import random\nimport uuid\nu = uuid.uuid4()\n"
        findings = lint_source(snippet, AAS_PATH, rules=select_rules(["DET004"]))
        assert [finding.rule for finding in findings] == ["DET004"]

    def test_findings_sorted_by_location(self):
        snippet = "import uuid\nu = uuid.uuid4()\nimport random\n"
        findings = lint_source(snippet, AAS_PATH)
        assert [finding.line for finding in findings] == sorted(
            finding.line for finding in findings
        )


class TestReporters:
    def _sample_findings(self):
        return lint_source("import random\nimport time\nt = time.time()\n", AAS_PATH)

    def test_text_report_shape(self):
        findings = self._sample_findings()
        text = render_text(findings)
        assert f"{AAS_PATH}:1:0: DET001" in text
        assert text.endswith(f"{len(findings)} findings")

    def test_json_report_schema(self):
        findings = self._sample_findings()
        payload = json.loads(render_json(findings))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == len(findings)
        assert len(payload["findings"]) == len(findings)
        for entry in payload["findings"]:
            assert set(entry) == {"rule", "path", "line", "col", "message"}
            assert isinstance(entry["line"], int)
            assert isinstance(entry["col"], int)
            assert entry["rule"] in set(rule_ids()) | {PARSE_RULE}

    def test_json_report_empty_run(self):
        payload = json.loads(render_json([]))
        assert payload == {"version": JSON_SCHEMA_VERSION, "count": 0, "findings": []}


class TestCli:
    def test_repo_is_clean_through_the_cli(self):
        result = run_cli("src", "tests")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stdout

    def test_fixture_corpus_fails_with_locations_in_text(self):
        result = run_cli(str(FIXTURES))
        assert result.returncode == 1
        assert "det_violations.py" in result.stdout
        for rule in ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "API002"):
            assert rule in result.stdout, rule
        assert "suppressed_ok.py" not in result.stdout
        assert "clean_module.py" not in result.stdout

    def test_fixture_corpus_fails_with_schema_in_json(self):
        result = run_cli(str(FIXTURES), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == len(payload["findings"]) > 0
        sample = payload["findings"][0]
        assert {"rule", "path", "line", "col", "message"} == set(sample)

    def test_select_narrows_the_cli_run(self):
        result = run_cli(str(FIXTURES), "--select", "DET004")
        assert result.returncode == 1
        assert "DET004" in result.stdout
        assert "DET001" not in result.stdout

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in rule_ids():
            assert rule_id in result.stdout

    def test_usage_errors_exit_2(self):
        assert run_cli().returncode == 2
        assert run_cli("definitely/not/a/path").returncode == 2
        assert run_cli("src", "--select", "NOPE999").returncode == 2


def test_lint_paths_accepts_single_files():
    findings = lint_paths([FIXTURES / "det_violations.py"])
    assert findings
    assert all(finding.path.endswith("det_violations.py") for finding in findings)
