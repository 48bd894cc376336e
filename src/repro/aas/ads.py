"""Pop-under advertisement monetization (paper Section 5.2).

Hublaagram shows 1-4 pop-under ads (PopAds network) per free service
request. Revenue per thousand impressions (CPM) depends on visitor
geography; the paper uses a $0.60-$4.00 CPM band. The ad network here
just counts impressions; the revenue *estimation* under the CPM band
lives in :mod:`repro.analysis.revenue`, mirroring the paper's
methodology (which conservatively assumes one ad per request).
"""

from __future__ import annotations

import numpy as np

#: Paper: "for every 1,000 impressions (CPM) Hublaagram receives between
#: $0.60 and $4.00".
LOW_CPM_CENTS = 60
HIGH_CPM_CENTS = 400


class PopUnderAdNetwork:
    """Counts pop-under impressions served to service visitors."""

    def __init__(self, rng: np.random.Generator, ads_per_request: tuple[int, int] = (1, 4)):
        lo, hi = ads_per_request
        if lo < 1 or hi < lo:
            raise ValueError("ads_per_request must be a valid positive range")
        self._rng = rng
        self._range = (lo, hi)
        self.impressions = 0

    def serve_request(self) -> int:
        """Serve ads for one site interaction; returns impressions shown."""
        shown = int(self._rng.integers(self._range[0], self._range[1] + 1))
        self.impressions += shown
        return shown
