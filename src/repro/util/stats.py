"""Small statistics helpers used across the measurement pipeline."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile of ``values`` (linear interpolation).

    Raises ``ValueError`` on an empty sequence — a silent 0.0 would turn
    into a countermeasure threshold that blocks everything.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of no values")
    return float(np.percentile(arr, pct))


def median(values: Sequence[float]) -> float:
    """Return the median of ``values``; raises on empty input."""
    return percentile(values, 50.0)
