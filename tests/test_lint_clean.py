"""Tier-1 gate: the repository's own code must be lint-clean.

This is the enforcement half of the determinism contract (DESIGN.md §7):
`repro.lint`'s rules only protect the tables' bit-reproducibility if the
shipped tree carries zero findings. Any new ambient-state call site or
upward-pointing import fails this test, not a review comment.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[1]


def _assert_clean(target: Path) -> None:
    findings = lint_paths([target])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro.lint findings in {target}:\n{rendered}"


def test_src_repro_is_lint_clean():
    _assert_clean(REPO_ROOT / "src" / "repro")


def test_tests_are_lint_clean():
    """The test suite itself must not smuggle in ambient state.

    The intentionally-violating corpus under ``tests/fixtures/`` is
    excluded by the engine's directory walk (it only lints when named
    explicitly, as ``test_lint_rules.py`` does).
    """
    _assert_clean(REPO_ROOT / "tests")


def test_fixture_corpus_is_dirty():
    """Guard the guard: the fixture corpus must keep producing findings,
    otherwise the CLI integration tests would vacuously pass."""
    findings = lint_paths([REPO_ROOT / "tests" / "fixtures" / "lint"])
    assert findings, "fixture corpus unexpectedly clean"
