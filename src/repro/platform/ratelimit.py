"""Rate limiting.

The public OAuth API "is rate limited in a manner that precludes broad
abusive use" (Section 2). We model it with a sliding-window limiter per
(key, window). AASs avoid it by spoofing the private mobile API, whose
limits are far looser — which is exactly why the paper's countermeasures
had to be built on behavioural thresholds instead.

Storage is vectorized for the batch pipeline (DESIGN.md §15): instead of
one deque entry *per charged event* — which the old implementation
evicted one ``popleft`` at a time as the window slid — each key keeps
``(tick, count)`` buckets plus a running window total. Charging within
a tick is an integer bump on the newest bucket, eviction pops whole
buckets, and :meth:`allow_batch` charges n attempts in one call with
exactly the decision sequence n :meth:`allow` calls would produce
(denied attempts consume no quota, so once the window fills every
subsequent same-tick attempt is denied too).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Hashable, Tuple

from repro.obs import NULL_OBS, Observability


class SlidingWindowLimiter:
    """Allows at most ``limit`` events per ``window_ticks`` per key."""

    def __init__(
        self,
        limit: int,
        window_ticks: int,
        obs: Observability | None = None,
        name: str = "default",
    ):
        if limit <= 0:
            raise ValueError("limit must be positive")
        if window_ticks <= 0:
            raise ValueError("window must be positive")
        self.limit = limit
        self.window_ticks = window_ticks
        #: per-key ``(tick, count)`` buckets, oldest first
        self._buckets: dict[Hashable, Deque[Tuple[int, int]]] = {}
        #: per-key sum of live bucket counts — the charged window load
        self._totals: dict[Hashable, int] = {}
        _obs = obs if obs is not None else NULL_OBS
        self._obs_allowed = _obs.counter(
            "platform.ratelimit.decisions", limiter=name, outcome="allowed"
        )
        self._obs_rejected = _obs.counter(
            "platform.ratelimit.decisions", limiter=name, outcome="rejected"
        )

    def _window_total(self, key: Hashable, now: int) -> int:
        """Evict expired buckets for ``key``; returns the live total."""
        buckets = self._buckets.get(key)
        if buckets is None:
            self._buckets[key] = deque()
            self._totals[key] = 0
            return 0
        total = self._totals[key]
        cutoff = now - self.window_ticks
        while buckets and buckets[0][0] <= cutoff:
            total -= buckets.popleft()[1]
        self._totals[key] = total
        return total

    def _charge(self, key: Hashable, now: int, count: int) -> None:
        buckets = self._buckets[key]
        if buckets and buckets[-1][0] == now:
            buckets[-1] = (now, buckets[-1][1] + count)
        else:
            buckets.append((now, count))
        self._totals[key] += count

    def allow(self, key: Hashable, now: int) -> bool:
        """Record an attempt at tick ``now``; True if under the limit.

        Denied attempts are not recorded (they consume no quota).
        """
        if self._window_total(key, now) >= self.limit:
            self._obs_rejected.inc()
            return False
        self._charge(key, now, 1)
        self._obs_allowed.inc()
        return True

    def allow_batch(self, key: Hashable, now: int, count: int) -> int:
        """Charge ``count`` attempts at tick ``now`` in one call.

        Returns how many were granted: the first ``granted`` attempts
        succeed, the rest are denied — byte-identical bookkeeping to
        ``count`` scalar :meth:`allow` calls, including the decision
        counters, but with one eviction pass and one bucket write.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return 0
        total = self._window_total(key, now)
        granted = min(count, max(self.limit - total, 0))
        if granted:
            self._charge(key, now, granted)
            self._obs_allowed.inc(granted)
        if count > granted:
            self._obs_rejected.inc(count - granted)
        return granted

    def remaining(self, key: Hashable, now: int) -> int:
        """How many further events the key may emit at tick ``now``."""
        return self.limit - self._window_total(key, now)
