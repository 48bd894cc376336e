"""Host-speed normalization: time measured in units of a reference kernel.

A fixed pure-Python kernel (40k dict updates over 1024 keys, about 5 ms)
runs every ``period_s`` seconds from a ``SIGALRM`` interval timer inside
the measured process. Each stretch of work between two kernel runs is
divided by the duration of the kernel that closes it and multiplied by
:data:`NOMINAL_KERNEL_S`, so normalized seconds read as seconds on a host
whose kernel takes exactly the nominal time. Host speed changes that hit
the workload and the kernel alike (frequency scaling, steal time, noisy
neighbours) cancel; kernel time itself is excluded from every interval.

Only work done in this process is covered, which is why every workload
runs single-process.

Run ``python3 perfbench/normalize.py`` for the self-check: a region doing
a fixed 2x amount of pure-Python work must read about 2x in normalized
seconds.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time

#: reference-kernel time on the reference host; normalized seconds are
#: "seconds at this kernel speed"
NOMINAL_KERNEL_S = 0.005

#: the kernel's fixed access pattern: 40k updates spread over 1024 keys
_KERNEL_KEYS = [(i * 7919) % 1024 for i in range(40_000)]
_KERNEL_TABLE = range(1024)


def reference_kernel() -> int:
    """The fixed unit of pure-Python work every interval is divided by."""
    table = dict.fromkeys(_KERNEL_TABLE, 0)
    for key in _KERNEL_KEYS:
        table[key] += 1
    return len(table)


class HostClock:
    """A normalized clock driven by periodic reference-kernel samples.

    ``start()`` arms the timer; ``sync()`` runs the kernel immediately,
    closing the open interval, and returns the normalized seconds
    accumulated so far — so a region's normalized length is the
    difference of two ``sync()`` readings. ``work_now()`` is the raw
    clock minus all kernel time, for timestamps taken between syncs.
    """

    def __init__(self, period_s: float = 0.1, nominal_s: float = NOMINAL_KERNEL_S):
        self.period_s = period_s
        self.nominal_s = nominal_s
        self.normalized_s = 0.0
        self.kernel_s = 0.0
        self.samples: list[float] = []
        self._last_end = 0.0
        self._busy = False
        self._previous_handler = None

    def start(self) -> None:
        reference_kernel()  # warm the code path before the first sample
        self._last_end = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            reference_kernel()
            end = time.perf_counter()
            kernel = end - begin
            self.normalized_s += (begin - self._last_end) * self.nominal_s / kernel
            self.kernel_s += kernel
            self.samples.append(kernel)
            self._last_end = end
        finally:
            self._busy = False

    def sync(self) -> float:
        """Close the open interval now; the normalized seconds so far."""
        self._sample()
        return self.normalized_s

    def work_now(self) -> float:
        """Raw seconds minus every kernel run so far (monotonic)."""
        return time.perf_counter() - self.kernel_s

    def kernel_stats(self) -> dict:
        """Median, min and max kernel duration, so host drift stays visible."""
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "median_s": statistics.median(self.samples),
            "min_s": min(self.samples),
            "max_s": max(self.samples),
        }


def _synthetic_work(units: int) -> int:
    """Pure-Python work proportional to ``units`` (not the kernel's shape)."""
    total = 0
    values = list(range(512))
    for _ in range(units):
        total += sum(v * v for v in values) % 7
        values.reverse()
    return total


def self_check(units: int = 12_000, tolerance: float = 0.15) -> dict:
    """A 2x-work region must read about 2x the 1x region, normalized."""
    clock = HostClock()
    clock.start()
    try:
        _synthetic_work(units)  # warm-up, not measured
        readings: dict[int, list[float]] = {}
        for factor in (1, 2, 1, 2, 1, 2):
            begin = clock.sync()
            _synthetic_work(units * factor)
            readings.setdefault(factor, []).append(clock.sync() - begin)
    finally:
        clock.stop()
    one = statistics.median(readings[1])
    two = statistics.median(readings[2])
    ratio = two / one
    return {
        "one_s": one,
        "two_s": two,
        "ratio": ratio,
        "ok": abs(ratio - 2.0) <= 2.0 * tolerance,
        "kernel": clock.kernel_stats(),
    }


if __name__ == "__main__":
    result = self_check()
    print(result)
    sys.exit(0 if result["ok"] else 1)
