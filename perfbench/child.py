"""One repetition of one workload, in a fresh process.

``run.py`` starts one of these per measured repetition, one at a time,
so peak RSS is per repetition and no allocator, interning or RNG-cache
state carries from one repetition to the next. The reference-kernel
clock starts before the first ``import repro``, so set-up time covers
the imports users pay on every run. The last stdout line is one JSON
object.

Roles:

* ``measure`` — untraced, observability on;
* ``obs-off`` — untraced with ``observability=False``: the base of
  ``obs.overhead_frac``;
* ``traced`` — the :mod:`tracer` wrappers installed before set-up.

Set-up is repeated ``--setup-repeats`` times back to back (by default
the workload's ``setup_repeats``), timing each; the timed region follows
the last one.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from normalize import HostClock  # noqa: E402

ROLES = ("measure", "obs-off", "traced")


class StepTimer:
    """Stamps the end of every simulated hour (``SimClock.advance``)."""

    def __init__(self, clock: HostClock) -> None:
        from repro.platform.clock import SimClock

        self._cls = SimClock
        self._original = SimClock.__dict__["advance"]
        self.stamps: list[float] = []
        original, stamps, now = self._original, self.stamps, clock.work_now

        @functools.wraps(original)
        def advance(sim_clock, ticks: int = 1) -> None:
            original(sim_clock, ticks)
            stamps.append(now())

        self._patched = advance

    def __enter__(self) -> "StepTimer":
        self._cls.advance = self._patched
        return self

    def __exit__(self, *exc) -> None:
        self._cls.advance = self._original


def step_stats(stamps: list[float], start: float, factor: float) -> dict:
    """Median step time and the highest percentile with >= 10 steps beyond it."""
    durations = sorted(
        (end - begin) * factor * 1000.0 for begin, end in zip([start] + stamps[:-1], stamps)
    )
    count = len(durations)
    stats: dict = {"n": count}
    if count:
        stats["median_ms"] = statistics.median(durations)
    if count > 10:
        stats["tail_pct"] = 100.0 * (count - 10) / count
        stats["tail_ms"] = durations[count - 11]
    return stats


def run(args: argparse.Namespace, clock: HostClock) -> dict:
    origin = clock.work_now()
    begin = clock.sync()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    imports_s = clock.sync() - begin
    tracer = None
    if args.role == "traced":
        from tracer import Tracer

        tracer = Tracer(clock)
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, observability=args.role != "obs-off", workdir=args.workdir
    )
    if tracer is not None and hasattr(workload, "wrap_replica"):
        workload.wrap_replica = functools.partial(tracer.span_only, "fleet.replica")
    repeats = args.setup_repeats or workload.setup_repeats
    setup_runs: list[float] = []
    try:
        for index in range(repeats):
            if index:
                workload.close()
                gc.collect()
            start = clock.sync()
            setup_work_start = clock.work_now()
            workload.setup()
            setup_work_s = clock.work_now() - setup_work_start
            setup_runs.append(clock.sync() - start)
        if tracer is not None:
            tracer.start_timed()
        with StepTimer(clock) as steps:
            timed_start = clock.sync()
            work_start = clock.work_now()
            actions = workload.run()
            work_end = clock.work_now()
            timed_end = clock.sync()
        payload = workload.payload()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
    timed_s = timed_end - timed_start
    factor = timed_s / (work_end - work_start)
    result = {
        "role": args.role,
        "workload": args.workload,
        "seed": args.seed,
        "imports_s": imports_s,
        "setup_runs_s": setup_runs,
        "timed_s": timed_s,
        "timed_raw_s": work_end - work_start,
        "actions": actions,
        "digest": workloads.payload_digest(payload),
        "steps": step_stats(steps.stamps, work_start, factor),
    }
    if tracer is not None:
        from tracer import counter_metrics

        # the last set-up's factor: with one set-up, the one traced
        setup_factor = setup_runs[-1] / setup_work_s
        layers = tracer.layer_metrics(setup_factor, factor)
        layers.update(counter_metrics(workload.counters))
        result["layers"] = layers
        result["coverage"] = tracer.timed_self_s() / (work_end - work_start)
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans, origin, setup_factor, factor)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=ROLES, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    parser.add_argument(
        "--setup-repeats", type=int, default=0, help="back-to-back set-ups (0: the workload's)"
    )
    args = parser.parse_args(argv)
    wall_start = time.perf_counter()
    clock = HostClock()
    clock.start()
    try:
        result = run(args, clock)
    finally:
        clock.stop()
    result["wall_s"] = time.perf_counter() - wall_start
    result["kernel"] = clock.kernel_stats()
    # ru_maxrss is KiB on Linux; this process ran exactly one repetition
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
