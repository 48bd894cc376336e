"""The simulation clock.

Time is an integer tick count, one tick per simulated hour. The clock
supports scheduling callbacks at future ticks, which the countermeasure
engine uses to implement delayed removal and scenario drivers use for
trial-expiry and renewal events.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.util.timeutils import tick_to_day


class SimClock:
    """An hour-granularity simulation clock with a callback schedule."""

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("clock cannot start before tick 0")
        self._now = int(start)
        self._schedule: list[tuple[int, int, Callable[[int], None]]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> int:
        """Current tick."""
        return self._now

    @property
    def day(self) -> int:
        """Zero-based day index of the current tick."""
        return tick_to_day(self._now)

    def call_at(self, tick: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(tick)`` to fire when the clock reaches ``tick``.

        Scheduling in the past (or at the current tick) is rejected: the
        present tick's callbacks have already run.
        """
        if tick <= self._now:
            raise ValueError(f"cannot schedule at tick {tick}; clock is at {self._now}")
        heapq.heappush(self._schedule, (tick, next(self._counter), callback))

    def call_after(self, delay: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` ticks from now."""
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.call_at(self._now + delay, callback)

    def advance(self, ticks: int = 1) -> None:
        """Move time forward, firing due callbacks in schedule order."""
        if ticks <= 0:
            raise ValueError("can only advance forward")
        target = self._now + ticks
        while self._schedule and self._schedule[0][0] <= target:
            fire_at, _, callback = heapq.heappop(self._schedule)
            self._now = fire_at
            callback(fire_at)
        self._now = target

    def pending_callbacks(self) -> int:
        """Number of callbacks still scheduled (for tests/diagnostics)."""
        return len(self._schedule)
