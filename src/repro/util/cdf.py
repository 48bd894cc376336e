"""Empirical CDFs, used for the Figure 3/4 target-bias analyses."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class EmpiricalCDF:
    """An empirical cumulative distribution function over a sample.

    >>> cdf = EmpiricalCDF([1, 2, 2, 4])
    >>> cdf(2)
    0.75
    >>> cdf.quantile(0.5)
    2.0
    """

    def __init__(self, sample: Iterable[float]):
        values = np.sort(np.asarray(list(sample), dtype=float))
        if values.size == 0:
            raise ValueError("cannot build a CDF from an empty sample")
        self._values = values

    @property
    def n(self) -> int:
        return int(self._values.size)

    def __call__(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        return float(np.searchsorted(self._values, x, side="right")) / self.n

    def quantile(self, q: float) -> float:
        """Inverse CDF via linear interpolation; ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self._values, q))

    def median(self) -> float:
        return self.quantile(0.5)

    def series(self, points: int = 100) -> list[tuple[float, float]]:
        """Return ``points`` (x, P(X<=x)) pairs for plotting/reporting."""
        if points < 2:
            raise ValueError("need at least two points")
        xs = np.quantile(self._values, np.linspace(0.0, 1.0, points))
        return [(float(x), self(float(x))) for x in xs]


def summarize(sample: Sequence[float]) -> dict[str, float]:
    """Five-number summary of a sample, for table output."""
    cdf = EmpiricalCDF(sample)
    return {
        "min": cdf.quantile(0.0),
        "p25": cdf.quantile(0.25),
        "median": cdf.quantile(0.5),
        "p75": cdf.quantile(0.75),
        "max": cdf.quantile(1.0),
    }
