"""The only obs module allowed to probe the host (clock + RSS).

Everything else in ``repro.obs`` is a pure function of simulation
state; wall-clock span durations and RSS high-water marks are an
explicit, opt-in extra for humans profiling a run. Reading the host
clock violates DET003, and importing ``time``/``resource`` violates
OBS003. This file is the one path allowlisted for both rules in
``tests/test_source_rules.py``, so every host probe in the tree
funnels through here.

Containment rules, summarized by the allowlist entries' reasons:

* nothing here feeds back into simulation state — callers only ever
  attach the readings to closed span records;
* the resulting ``wall_s`` / ``peak_rss_kb`` fields are stripped by
  :func:`repro.obs.trace.canonical_lines`, so canonical traces remain
  bit-identical across hosts and runs.
"""

from __future__ import annotations

import resource
import time


def read_wall_seconds() -> float:
    """Monotonic host seconds; only meaningful as a difference."""
    return time.perf_counter()


def read_peak_rss_kb() -> int:
    """Process peak resident set size in KiB (Linux ``ru_maxrss`` unit).

    A high-water mark, not a current reading: within one process it is
    monotonically non-decreasing, so per-span values attribute peaks to
    the first span that reached them.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
