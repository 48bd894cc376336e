"""The reciprocity response model (paper Sections 3.1, 4.3, Table 5).

When an organic user checks notifications and finds an inbound action,
they may reciprocate. The paper measured the aggregate probabilities
(Table 5); this model encodes them as per-notification Bernoulli draws,
modulated by:

* the *recipient's* personal propensity (graph-position derived — the
  basis of AAS target-selection bias, Section 5.3),
* the *actor's* attractiveness (empty vs lived-in accounts — the 1.6x
  to 2.6x lived-in effect, Section 4.3),
* a per-recipient ``follow_on_like_affinity`` trait: a small minority of
  users responds to likes by following. Services that curate recipient
  lists toward such users exhibit the elevated like->follow rate the
  paper observed for Instalex and could not explain from observable
  account features.

Paper Table 5 anchor values (empty honeypot accounts):
  like   -> like    1.5%-2.1%
  like   -> follow  0.1%-0.2%   (Instalex anomaly: 1.4%)
  follow -> follow  10.3%-13.0%
  follow -> like    0.0%
Lived-in accounts: likes ~1.6x-2.6x higher, follows ~1.1x-1.25x higher.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.platform.models import ActionType

#: Attractiveness anchors: where empty/lived-in honeypots land on the
#: profiles.account_attractiveness scale.
EMPTY_ATTRACTIVENESS = 0.25
LIVED_IN_ATTRACTIVENESS = 0.95


@dataclass(frozen=True)
class ReciprocityParams:
    """Base per-notification response probabilities and gain factors.

    Base rates apply to a recipient with propensity 1.0 reacting to an
    *empty*-looking actor; see module docstring for the paper anchors.
    """

    like_to_like: float = 0.020
    like_to_follow: float = 0.0015
    follow_to_follow: float = 0.115
    follow_to_like: float = 0.0
    lived_in_like_gain: float = 2.0
    lived_in_follow_gain: float = 1.18

    def __post_init__(self):
        for name in ("like_to_like", "like_to_follow", "follow_to_follow", "follow_to_like"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.lived_in_like_gain < 1.0 or self.lived_in_follow_gain < 1.0:
            raise ValueError("lived-in gains must be >= 1 (lived-in never hurts)")

    def scaled(self, factor: float) -> "ReciprocityParams":
        """Scale all base rates by ``factor`` (used by calibration)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            like_to_like=min(1.0, self.like_to_like * factor),
            like_to_follow=min(1.0, self.like_to_follow * factor),
            follow_to_follow=min(1.0, self.follow_to_follow * factor),
            follow_to_like=min(1.0, self.follow_to_like * factor),
        )


class ReciprocityModel:
    """Draws reciprocal-response intents for inbound notifications."""

    def __init__(self, params: ReciprocityParams, rng: np.random.Generator):
        self.params = params
        self._rng = rng
        #: memo of :meth:`response_items` — a pure function of its
        #: arguments (``params`` is frozen), so caching is exact. Keys
        #: repeat heavily: attractiveness saturates (profile completeness
        #: is discrete, content/following contributions cap at 10) and
        #: propensity/affinity are per-profile constants.
        self._items_memo: dict[tuple, tuple] = {}

    def _attractiveness_gain(self, attractiveness: float, full_gain: float) -> float:
        """Interpolate the lived-in gain along the attractiveness scale."""
        span = LIVED_IN_ATTRACTIVENESS - EMPTY_ATTRACTIVENESS
        position = (attractiveness - EMPTY_ATTRACTIVENESS) / span
        position = min(max(position, 0.0), 1.2)  # slightly extrapolate above anchors
        return 1.0 + (full_gain - 1.0) * position

    def response_probabilities(
        self,
        inbound_type: ActionType,
        actor_attractiveness: float,
        recipient_propensity: float,
        follow_on_like_affinity: float = 1.0,
    ) -> dict[ActionType, float]:
        """Per-response-type probabilities for a single notification."""
        p = self.params
        if inbound_type is ActionType.LIKE:
            like_gain = self._attractiveness_gain(actor_attractiveness, p.lived_in_like_gain)
            follow_gain = self._attractiveness_gain(actor_attractiveness, p.lived_in_follow_gain)
            raw = {
                ActionType.LIKE: p.like_to_like * like_gain * recipient_propensity,
                ActionType.FOLLOW: p.like_to_follow
                * follow_gain
                * recipient_propensity
                * follow_on_like_affinity,
            }
        elif inbound_type is ActionType.FOLLOW:
            follow_gain = self._attractiveness_gain(actor_attractiveness, p.lived_in_follow_gain)
            like_gain = self._attractiveness_gain(actor_attractiveness, p.lived_in_like_gain)
            raw = {
                ActionType.FOLLOW: p.follow_to_follow * follow_gain * recipient_propensity,
                ActionType.LIKE: p.follow_to_like * like_gain * recipient_propensity,
            }
        elif inbound_type is ActionType.COMMENT:
            # Comments behave like weak likes for reciprocation purposes.
            like_gain = self._attractiveness_gain(actor_attractiveness, p.lived_in_like_gain)
            raw = {ActionType.LIKE: 0.5 * p.like_to_like * like_gain * recipient_propensity}
        else:
            raw = {}
        return {k: min(v, 1.0) for k, v in raw.items() if v > 0.0}

    def response_items(
        self,
        inbound_type: ActionType,
        actor_attractiveness: float,
        recipient_propensity: float,
        follow_on_like_affinity: float,
    ) -> tuple[tuple[ActionType, float], ...]:
        """:meth:`response_probabilities` as a memoized item tuple.

        Same values in the same (insertion) order the dict would yield:
        one response candidate per item, each decided by one of
        :meth:`draws` in this order.
        """
        # keyed on the dense column code rather than the enum member:
        # tuple hashing then costs three float hashes and an int hash
        # instead of entering Enum.__hash__ (a Python-level call) per probe
        key = (
            inbound_type.col_code,
            actor_attractiveness,
            recipient_propensity,
            follow_on_like_affinity,
        )
        items = self._items_memo.get(key)
        if items is None:
            items = self._items_memo[key] = tuple(
                self.response_probabilities(
                    inbound_type,
                    actor_attractiveness,
                    recipient_propensity,
                    follow_on_like_affinity,
                ).items()
            )
        return items

    def draws(self, n: int) -> list[float]:
        """``n`` uniform doubles in one call: a candidate is taken when
        its draw is below its probability. Values and generator state
        equal ``n`` scalar ``random()`` draws (``tests/test_util_rng.py``,
        ``TestBatchedDoubles``)."""
        return self._rng.random(n).tolist()
