"""Simulation-time units.

The simulator's clock counts integer hours ("ticks"). These helpers keep
call sites readable (``days(90)`` instead of ``90 * 24``).
"""

from __future__ import annotations

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 7 * HOURS_PER_DAY


def hours(n: float) -> int:
    """Convert hours to ticks (identity, with int coercion)."""
    return int(n)


def days(n: float) -> int:
    """Convert days to ticks."""
    return int(n * HOURS_PER_DAY)


def weeks(n: float) -> int:
    """Convert weeks to ticks."""
    return int(n * HOURS_PER_WEEK)


def tick_to_day(tick: int) -> int:
    """Return the zero-based day index containing ``tick``."""
    if tick < 0:
        raise ValueError("tick must be non-negative")
    return tick // HOURS_PER_DAY
