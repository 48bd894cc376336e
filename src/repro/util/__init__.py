"""Shared utilities: seeded randomness, statistics, CDFs, tables, time.

These helpers are deliberately dependency-light; everything above them in
the package graph (netsim, platform, aas, ...) builds on this layer.
"""

from repro.util.rng import SeedSequenceFactory, derive_rng
from repro.util.stats import median, percentile
from repro.util.cdf import EmpiricalCDF
from repro.util.tables import format_table
from repro.util.timeutils import (
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    days,
    hours,
    weeks,
)

__all__ = [
    "SeedSequenceFactory",
    "derive_rng",
    "median",
    "percentile",
    "EmpiricalCDF",
    "format_table",
    "HOURS_PER_DAY",
    "HOURS_PER_WEEK",
    "days",
    "hours",
    "weeks",
]
