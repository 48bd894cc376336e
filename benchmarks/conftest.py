"""Benchmark fixtures.

The expensive simulations run once per session and are shared across all
benchmark files:

* ``bench_study`` / ``bench_dataset`` — the paper-shaped 90-day
  measurement window (Tables 5-11, Figures 2-4).
* ``intervention_outcomes`` — a dedicated world that runs the six-week
  narrow intervention and the two-week broad intervention (Figures 5-7).

Each benchmark measures the *analysis* (the code that regenerates a
table/figure from the measured data) and prints the rendered rows; the
simulation cost is paid once here, mirroring how the paper's numbers
were computed once over a fixed dataset.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import Study, StudyConfig
from repro.interventions.experiment import BroadInterventionPlan, NarrowInterventionPlan

_CACHE: dict[str, object] = {}


def _main_study():
    if "main" not in _CACHE:
        study = Study(StudyConfig.paper_shaped(seed=42))
        study.run_honeypot_phase()
        study.learn_signatures()
        dataset = study.run_measurement()
        _CACHE["main"] = (study, dataset)
    return _CACHE["main"]


def _intervention_study():
    if "intervention" not in _CACHE:
        config = StudyConfig.small(seed=1042).with_measurement_days(7)
        study = Study(config)
        study.run_honeypot_phase()
        study.learn_signatures()
        study.run_measurement()  # pre-intervention window for calibration
        narrow = study.run_narrow_intervention(
            NarrowInterventionPlan(duration_days=42), calibration_days=6
        )
        # washout: let services probe back to full budgets before the
        # broad experiment (at simulation scale the narrow experiment's
        # per-account suppression would otherwise bleed into the broad
        # baseline; at paper scale 10% suppressed barely moves it)
        study.run_days(10)
        broad = study.run_broad_intervention(
            BroadInterventionPlan(delay_days=6, block_days=8), calibration_days=6
        )
        _CACHE["intervention"] = (study, narrow, broad)
    return _CACHE["intervention"]


@pytest.fixture(scope="session")
def bench_study():
    return _main_study()[0]


@pytest.fixture(scope="session")
def bench_dataset():
    return _main_study()[1]


@pytest.fixture(scope="session")
def intervention_study():
    return _intervention_study()[0]


@pytest.fixture(scope="session")
def narrow_outcome():
    return _intervention_study()[1]


@pytest.fixture(scope="session")
def broad_outcome():
    return _intervention_study()[2]


_RENDERED_PATH = Path(__file__).parent / "rendered_tables.txt"
_rendered_initialized = False


def emit(text: str) -> None:
    """Print a rendered table (visible under ``pytest -s``) and append it
    to ``benchmarks/rendered_tables.txt`` so every bench run leaves a
    readable artifact even when pytest captures stdout."""
    global _rendered_initialized
    print("\n" + text)
    mode = "a" if _rendered_initialized else "w"
    with open(_RENDERED_PATH, mode) as handle:
        handle.write(text + "\n\n")
    _rendered_initialized = True
