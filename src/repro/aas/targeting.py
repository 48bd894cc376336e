"""Reciprocity-abuse target selection (paper Section 5.3).

"These results indicate that the Reciprocity AASs do have a selection
bias in the accounts that they target, selecting for accounts with
higher out-degree and much lower in-degree to increase the likelihood of
a reciprocated action."

The targeting engine scores candidate accounts from *publicly visible*
graph data (following/follower counts), then samples targets for each
customer proportionally to score, avoiding repeats per customer. A
:class:`CuratedPool` mixes in a service-maintained recipient list —
modelling curated lists such as the one behind Instalex's anomalously
high follow-response-to-likes rate (Section 4.3), which the service
presumably built from historical response data invisible to outside
measurement.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Container

import numpy as np

from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId
from repro.util.stats import median


@dataclass
class CuratedPool:
    """A service-curated recipient list with a mixing fraction."""

    accounts: list[AccountId]
    mix_fraction: float = 0.5

    def __post_init__(self):
        if not self.accounts:
            raise ValueError("curated pool must be non-empty")
        if not 0.0 <= self.mix_fraction <= 1.0:
            raise ValueError("mix_fraction must be a probability")


class ReciprocityTargeting:
    """Degree-biased target sampling over a candidate universe."""

    def __init__(
        self,
        platform: InstagramPlatform,
        candidates: list[AccountId],
        rng: np.random.Generator,
        out_degree_bias: float = 1.0,
        in_degree_bias: float = 1.0,
        curated: CuratedPool | None = None,
    ):
        if not candidates:
            raise ValueError("candidate universe must be non-empty")
        if out_degree_bias < 0 or in_degree_bias < 0:
            raise ValueError("biases must be non-negative")
        self.platform = platform
        self.candidates = list(candidates)
        self.rng = rng
        self.out_degree_bias = out_degree_bias
        self.in_degree_bias = in_degree_bias
        self.curated = curated
        self._refresh_scores()

    def _refresh_scores(self) -> None:
        """Recompute candidate scores from current public graph state."""
        out_degrees = np.array(
            [self.platform.following_count(a) for a in self.candidates], dtype=float
        )
        in_degrees = np.array(
            [self.platform.follower_count(a) for a in self.candidates], dtype=float
        )
        med_out = max(median(out_degrees.tolist()), 1.0)
        med_in = max(median(in_degrees.tolist()), 1.0)
        scores = ((out_degrees + 1.0) / (med_out + 1.0)) ** self.out_degree_bias * (
            (med_in + 1.0) / (in_degrees + 1.0)
        ) ** self.in_degree_bias
        total = scores.sum()
        if total <= 0:
            raise ValueError("degenerate candidate scores")
        # scalar sampling runs on bisect over a plain list: element-for-
        # element identical to np.searchsorted(side='left') on the same
        # floats (test-pinned), minus the per-call numpy dispatch cost
        self._cumulative: list[float] = np.cumsum(scores / total).tolist()

    def _sample_scored(self) -> AccountId:
        index = bisect_left(self._cumulative, self.rng.random())
        return self.candidates[min(index, len(self.candidates) - 1)]

    def _sample_curated(self) -> AccountId:
        assert self.curated is not None
        pool = self.curated.accounts
        return pool[int(self.rng.integers(0, len(pool)))]

    def select(
        self,
        n: int,
        exclude: Container[AccountId],
        use_curated: bool = True,
        restrict_to: set[AccountId] | None = None,
        own: AccountId | None = None,
    ) -> list[AccountId]:
        """Pick up to ``n`` distinct targets, none in ``exclude`` and
        none equal to ``own`` (the customer's own account).

        ``exclude`` is only probed with ``in``, never copied or mutated,
        so callers pass their live per-customer state as it is.
        May return fewer than ``n`` when the universe is nearly
        exhausted for this customer (bounded retries, no spinning).
        ``use_curated=False`` bypasses the curated recipient list — it is
        a *like*-recipient list, so follow targeting ignores it.
        ``restrict_to`` narrows targets to a customer-specified audience
        (hashtag targeting, paper Section 3.3.1).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        picked: list[AccountId] = []
        chosen: set[AccountId] = set()
        attempts = 0
        max_attempts = 12 * max(n, 1)
        while len(picked) < n and attempts < max_attempts:
            attempts += 1
            from_curated = (
                use_curated
                and self.curated is not None
                and self.rng.random() < self.curated.mix_fraction
            )
            candidate = self._sample_curated() if from_curated else self._sample_scored()
            if candidate == own or candidate in exclude or candidate in chosen:
                continue
            if restrict_to is not None and candidate not in restrict_to:
                continue
            if not self.platform.account_exists(candidate):
                continue
            chosen.add(candidate)
            picked.append(candidate)
        return picked
