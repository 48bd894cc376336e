"""The canonical benchmark scenarios.

The scenarios cover the hot paths of the indexed/incremental design
(DESIGN.md "Performance architecture"). Each times the one production
path; speedups are read against committed history, not an in-tree
slow path:

* ``tick_loop`` — raw simulation throughput (``Study.run_hours``) at
  several population scales.
* ``sweep`` — attribution-sweep latency over a populated measurement
  window across the two classifier tiers: brute force over a
  materialized record list (the pre-index call pattern) and the
  incremental sweep of an attached (streaming) classifier.
* ``run_standard`` — wall time of the whole pipeline (honeypots →
  signatures → measurement) at 1x and 10x the tiny preset's population.
* ``world_build`` — ``Study(config)`` construction time on the columnar
  stores (DESIGN.md §11), up to 10x the tiny preset's population.
* ``fleet`` — the :mod:`repro.fleet` replication runner: a seeds ×
  intervention-arms sweep run serially with every replica rebuilding its
  prefix, vs. pooled with the world-snapshot prefix cache. The derived
  block records the snapshot hit rate and that the serial and pooled
  replica payloads are identical.
* ``sweep_orch`` — the manifest-grid orchestrator: one declarative
  sweep run flat (per-group prefix builds), as a nested prefix tree
  (shared world/honeypot nodes), and against a warm disk snapshot store
  (zero builds). Headline: ``speedup_tree_vs_flat`` plus the exact
  phase-cost ledger at every tree depth.

Each scenario returns one schema-versioned payload
(:mod:`repro.bench.schema`); the CLI writes it to
``BENCH_<SCENARIO>.json``. Smoke mode shrinks scales and repetitions to
CI-friendly seconds while exercising every code path.

Every payload embeds an ``observability`` key — the ``repro.obs``
metrics snapshot of a representative timed study (the last study the
scenario built) — so the timing numbers carry their
explanatory context: index hit rates, sweep-tier counts, scheduler
park/wake behavior.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Callable

from repro.bench.harness import (
    Stats,
    peak_rss_kb,
    summarize,
    time_repeated,
)
from repro.bench.schema import SCHEMA_VERSION
from repro.behavior.degree import DegreeDistribution
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.detection.classifier import AASClassifier
from repro.fleet import (
    PREFIX_DEPTH,
    PREFIX_SIGNATURES,
    PREFIXES,
    ArmSpec,
    FleetResult,
    FleetRunner,
    ReplicaSpec,
    SnapshotStore,
    SweepManifest,
    config_digest,
    expand_manifest,
    materialize_tree,
    plan_tree,
    remove_store_root,
    temporary_store_root,
)

#: seed used by every scenario; fixed so reruns time identical workloads
BENCH_SEED = 42


def _speedup(slow: Stats, fast: Stats) -> dict:
    """A ``derived.speedup_*`` entry: the ratio plus its noise verdict.

    The ratio compares the two cases' *minima*. On a shared runner,
    interference is one-sided — it only ever adds time — so the min-of-N
    sample is the best estimate of each case's true cost, while means
    (and stdev-based CVs) absorb whatever else the host was doing during
    the run. The noise yardstick is correspondingly min-based: the worse
    of the two cases' relative best-to-runnerup gaps, i.e. how
    reproducible each minimum proved to be. ``noise_floor`` is true when
    |speedup - 1| sits inside that gap — the measured ratio is then
    indistinguishable from run-to-run jitter and must not be read as a
    real effect.
    """
    value = slow.best_s / fast.best_s
    noise_cv = max(
        (slow.runnerup_s - slow.best_s) / slow.best_s,
        (fast.runnerup_s - fast.best_s) / fast.best_s,
    )
    return {
        "value": value,
        "noise_cv": noise_cv,
        "noise_floor": abs(value - 1.0) < noise_cv,
    }


def bench_file_name(benchmark: str) -> str:
    """``BENCH_<NAME>.json`` for one scenario's payload."""
    return f"BENCH_{benchmark.upper()}.json"


def _envelope(
    benchmark: str,
    smoke: bool,
    settings: dict,
    results: list[dict],
    derived: dict | None = None,
    observability: dict | None = None,
) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "mode": "smoke" if smoke else "full",
        "settings": settings,
        "results": results,
    }
    if derived is not None:
        payload["derived"] = derived
    if observability is not None:
        payload["observability"] = observability
    return payload


# ----------------------------------------------------------------------
# tick_loop — simulation throughput at several population scales
# ----------------------------------------------------------------------

def bench_tick_loop(smoke: bool, workers: int = 1) -> dict:
    sizes = (260,) if smoke else (260, 520, 900)
    hours = 24 if smoke else 48
    warmup, repetitions = (0, 1) if smoke else (1, 3)
    results = []
    built: list[Study] = []
    for size in sizes:
        def make_case(size: int = size) -> Callable[[], object]:
            base = StudyConfig.tiny(seed=BENCH_SEED)
            study = Study(replace(base, population=replace(base.population, size=size)))
            built[:] = [study]  # keep only the latest for the obs snapshot
            return lambda: study.run_hours(hours)

        stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
        results.append(
            {
                "name": f"population-{size}",
                "stats": stats.as_dict(),
                "ticks_per_s": hours / stats.mean_s,
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    settings = {
        "seed": BENCH_SEED,
        "population_sizes": list(sizes),
        "hours_per_run": hours,
    }
    return _envelope(
        "tick_loop", smoke, settings, results,
        observability=built[-1].obs.metrics.snapshot(),
    )


# ----------------------------------------------------------------------
# sweep — attribution latency: brute force vs. incremental
# ----------------------------------------------------------------------

def bench_sweep(smoke: bool, workers: int = 1) -> dict:
    measurement_days = 3 if smoke else 10
    warmup, repetitions = (0, 2) if smoke else (1, 5)

    config = StudyConfig.tiny(seed=BENCH_SEED)
    study = Study(config)
    study.run_honeypot_phase()
    study.learn_signatures()
    dataset = study.run_measurement(measurement_days)
    log = study.platform.log
    start_tick, end_tick = dataset.start_tick, dataset.end_tick
    assert study.classifier is not None
    signatures = list(study.classifier.signatures)

    def brute_case() -> Callable[[], object]:
        # a fresh classifier per run: no match memo, no caches — and the
        # list() materialization the pre-index call sites paid every sweep
        classifier = AASClassifier(signatures)
        return lambda: classifier.sweep(list(log), start_tick, end_tick)

    def incremental_case() -> Callable[[], object]:
        # the study's own classifier streams from the log, so this is
        # the repeated-sweep pattern of the intervention phases
        classifier = study.classifier
        assert classifier is not None and classifier.attached_log is log
        return lambda: classifier.sweep(log, start_tick, end_tick)

    cases = (
        ("cold-brute-force", brute_case),
        ("incremental", incremental_case),
    )
    results = []
    stats_by_name: dict[str, Stats] = {}
    for name, make_case in cases:
        stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
        stats_by_name[name] = stats
        results.append(
            {"name": name, "stats": stats.as_dict(), "peak_rss_kb": peak_rss_kb()}
        )
    derived = {
        "log_records": len(log),
        "window_records": len(log.records_between(start_tick, end_tick)),
        "speedup_incremental_vs_cold_brute": _speedup(
            stats_by_name["cold-brute-force"], stats_by_name["incremental"]
        ),
    }
    settings = {
        "seed": BENCH_SEED,
        "measurement_days": measurement_days,
        "window": [start_tick, end_tick],
    }
    return _envelope(
        "sweep", smoke, settings, results, derived,
        observability=study.obs.metrics.snapshot(),
    )


# ----------------------------------------------------------------------
# run_standard — the whole pipeline at 1x and 10x population
# ----------------------------------------------------------------------

def bench_run_standard(smoke: bool, workers: int = 1) -> dict:
    """Time the whole pipeline at 1x and 10x population.

    Full mode runs two scales of the tiny preset: the preset's own
    population (260) and a 10x variant (2600). Smoke mode keeps the
    single-scale shortened pipeline.
    """
    sizes = (260,) if smoke else (260, 2600)
    warmup, repetitions = (0, 1) if smoke else (1, 5)
    results = []
    built: list[Study] = []
    for size in sizes:
        def make_case(size: int = size) -> Callable[[], object]:
            config = StudyConfig.tiny(seed=BENCH_SEED)
            if smoke:
                config = replace(config, honeypot_days=2, measurement_days=2)
            study = Study(replace(config, population=replace(config.population, size=size)))
            built[:] = [study]  # keep only the latest for the obs snapshot
            return lambda: study.run_standard()

        stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
        results.append(
            {
                "name": f"run-standard-pop{size}",
                "stats": stats.as_dict(),
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    settings = {
        "seed": BENCH_SEED,
        "preset": "tiny",
        "population_sizes": list(sizes),
        "scaled_population_multiple": max(sizes) / 260,
    }
    return _envelope(
        "run_standard", smoke, settings, results,
        observability=built[-1].obs.metrics.snapshot(),
    )


# ----------------------------------------------------------------------
# world_build — Study construction on the columnar stores
# ----------------------------------------------------------------------

#: the world_build wiring knobs: a follower-graph-heavy population.
#: The tiny preset's default build is ~85% profile/media synthesis, so
#: at default degrees graph wiring is a small share of the build.
#: Raising the out-degree median (40 → 200) and thinning media per
#: account shifts the build's weight onto graph wiring, the work the
#: columnar stores do.
_BUILD_DEGREE_MEDIAN = 200.0
_BUILD_MEDIA_PER_ACCOUNT = (2, 6)


def bench_world_build(smoke: bool, workers: int = 1) -> dict:
    """Time world construction (``Study(config)``).

    The build is dominated by the columnar graph's ``bulk_follow_new``
    wiring (one ``dict.fromkeys`` row per account + flat CSR edge
    columns) on this deliberately wiring-heavy workload (see the
    module-level knobs above). The largest full-mode size (2600) is 10x
    the tiny preset's population.
    """
    sizes = (900,) if smoke else (260, 900, 2600)
    warmup, repetitions = (1, 3) if smoke else (1, 5)
    results = []
    built: list[Study] = []
    for size in sizes:
        def make_case(size: int = size) -> Callable[[], object]:
            base = StudyConfig.tiny(seed=BENCH_SEED)
            config = replace(
                base,
                population=replace(
                    base.population,
                    size=size,
                    out_degree=DegreeDistribution(median=_BUILD_DEGREE_MEDIAN, sigma=1.0),
                    media_per_account=_BUILD_MEDIA_PER_ACCOUNT,
                ),
            )

            def build() -> None:
                built[:] = [Study(config)]

            return build

        stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
        results.append(
            {
                "name": f"population-{size}",
                "stats": stats.as_dict(),
                "accounts_per_s": size / stats.mean_s,
                "peak_rss_kb": peak_rss_kb(),
            }
        )
    settings = {
        "seed": BENCH_SEED,
        "population_sizes": list(sizes),
        "preset": "tiny",
        "tiny_population_multiple": max(sizes) / 260,
        "out_degree_median": _BUILD_DEGREE_MEDIAN,
        "media_per_account": list(_BUILD_MEDIA_PER_ACCOUNT),
    }
    return _envelope(
        "world_build", smoke, settings, results,
        observability=built[-1].obs.metrics.snapshot(),
    )


# ----------------------------------------------------------------------
# fleet — replication runner: serial rebuild-everything vs pooled reuse
# ----------------------------------------------------------------------

def _fleet_specs(smoke: bool) -> list[ReplicaSpec]:
    """The fleet workload: seeds × intervention arms sharing a prefix.

    Full mode stretches the honeypot phase so the shared prefix
    dominates each replica — the realistic shape for arm sweeps, and the
    regime the snapshot cache exists for. Intervention arms skip the
    pre-intervention measurement window (``measurement_days=0``);
    standard arms keep short ones so both payload shapes are exercised.
    """
    honeypot_days = 4 if smoke else 16
    base = replace(StudyConfig.tiny(seed=BENCH_SEED), honeypot_days=honeypot_days)
    seeds = (BENCH_SEED, BENCH_SEED + 1)
    specs: list[ReplicaSpec] = []
    for seed in seeds:
        config = replace(base, seed=seed)
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/standard-md1",
                config=config,
                arm="standard",
                arm_options=(("measurement_days", 1),),
            )
        )
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/narrow",
                config=config,
                arm="narrow",
                arm_options=(
                    ("measurement_days", 0),
                    ("narrow_days", 1 if smoke else 2),
                    ("calibration_days", 1),
                ),
            )
        )
        if not smoke:
            specs.append(
                ReplicaSpec(
                    name=f"seed-{seed}/standard-md2",
                    config=config,
                    arm="standard",
                    arm_options=(("measurement_days", 2),),
                )
            )
            specs.append(
                ReplicaSpec(
                    name=f"seed-{seed}/broad",
                    config=config,
                    arm="broad",
                    arm_options=(
                        ("measurement_days", 0),
                        ("delay_days", 1),
                        ("block_days", 1),
                        ("calibration_days", 1),
                    ),
                )
            )
    return specs


def _replica_payload_digest(result: FleetResult) -> str:
    """Digest of the inner replica payloads only — the part that must be
    identical between the serial and pooled cases (the snapshot-stats
    envelope legitimately differs: reuse is off in the serial baseline)."""
    text = json.dumps([r.payload for r in result.replicas], sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def bench_fleet(smoke: bool, workers: int = 4) -> dict:
    specs = _fleet_specs(smoke)
    warmup, repetitions = 0, 1

    captured: dict[str, FleetResult] = {}

    def serial_case() -> Callable[[], object]:
        runner = FleetRunner(workers=1, reuse_prefix=False)
        return lambda: captured.__setitem__("serial-no-reuse", runner.run(specs))

    def pooled_case() -> Callable[[], object]:
        runner = FleetRunner(workers=workers, reuse_prefix=True)
        return lambda: captured.__setitem__("pooled-reuse", runner.run(specs))

    results = []
    stats_by_name: dict[str, Stats] = {}
    for name, make_case in (("serial-no-reuse", serial_case), ("pooled-reuse", pooled_case)):
        stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
        stats_by_name[name] = stats
        results.append(
            {
                "name": name,
                "stats": stats.as_dict(),
                "replicas": len(specs),
                "peak_rss_kb": peak_rss_kb(),
            }
        )

    pooled = captured["pooled-reuse"]
    serial = captured["serial-no-reuse"]
    derived = {
        "speedup_pooled_vs_serial": _speedup(
            stats_by_name["serial-no-reuse"], stats_by_name["pooled-reuse"]
        ),
        "replica_payloads_match": (
            _replica_payload_digest(serial) == _replica_payload_digest(pooled)
        ),
        "snapshot": {
            "prefix_groups": pooled.prefix_groups,
            "prefix_builds": pooled.prefix_builds,
            "prefix_restores": pooled.prefix_restores,
            "build_cost_avoided_frac": pooled.build_cost_avoided_frac,
            "snapshot_hit_rate": (
                (pooled.prefix_restores - pooled.prefix_builds) / pooled.prefix_restores
                if pooled.prefix_restores
                else 0.0
            ),
        },
    }
    settings = {
        "seed": BENCH_SEED,
        "preset": "tiny",
        "honeypot_days": 4 if smoke else 16,
        "replicas": [spec.name for spec in specs],
        "workers": workers,
    }
    return _envelope("fleet", smoke, settings, results, derived)


# ----------------------------------------------------------------------
# sweep_orch — manifest grids: flat reuse vs nested trees vs warm store
# ----------------------------------------------------------------------

def _sweep_orch_manifest(smoke: bool, prefix: str = PREFIX_SIGNATURES) -> SweepManifest:
    """The orchestrator workload: seeds × honeypot-days × measurement-
    days × arms.

    Full mode expands to 24 replicas (2 seeds × 2 honeypot spans × 2
    measurement windows × 3 arms) — the shape where the nested tree
    earns its keep. The flat baseline keys its cache on the *whole*
    config digest, so every (honeypot_days, measurement_days) cell
    rebuilds world + honeypot + signatures from scratch; the tree
    instead forks honeypot variants off a shared world node and lets
    all measurement windows of a cell share the entire chain (the
    window length is post-prefix). Smoke keeps the same shape with
    short phases and the standard arm only.
    """
    arms: tuple[ArmSpec, ...]
    if smoke:
        arms = (ArmSpec(arm="standard"),)
    else:
        # standard and report honor the config-level measurement window;
        # narrow skips it (measurement_days=0) and runs the intervention
        arms = (
            ArmSpec(arm="standard"),
            ArmSpec(arm="report"),
            ArmSpec(
                arm="narrow",
                options=(
                    ("measurement_days", 0),
                    ("narrow_days", 1),
                    ("calibration_days", 1),
                ),
            ),
        )
    return SweepManifest(
        name="bench-sweep-orch",
        preset="tiny",
        prefix=prefix,
        seeds=(BENCH_SEED, BENCH_SEED + 1),
        honeypot_days=(2, 3) if smoke else (4, 8),
        measurement_days=(1, 2) if smoke else (2, 4),
        arms=arms,
    )


def _planned_costs(specs: list[ReplicaSpec]) -> dict:
    """The deterministic phase-cost ledger of a spec list, by planning
    alone (no execution): what a cold tree run builds vs. what flat
    per-(config, prefix) grouping builds, over the same phase units."""
    units = sum(spec.depth for spec in specs)
    tree_builds = len(plan_tree(specs).nodes)
    flat_groups = {
        (config_digest(spec.config), spec.prefix): PREFIX_DEPTH[spec.prefix]
        for spec in specs
    }
    flat_builds = sum(flat_groups.values())
    return {
        "replicas": len(specs),
        "phase_units": units,
        "phase_builds_tree": tree_builds,
        "phase_builds_flat": flat_builds,
        "build_cost_avoided_frac_tree": 1.0 - tree_builds / units if units else 0.0,
        "build_cost_avoided_frac_flat": 1.0 - flat_builds / units if units else 0.0,
    }


def bench_sweep_orch(smoke: bool, workers: int = 1) -> dict:
    """Time one manifest grid under the three orchestration strategies.

    * ``flat-reuse`` — the pre-tree baseline: one full prefix build per
      distinct (config, prefix) group, no cross-group sharing.
    * ``tree-reuse`` — the nested planner: shared world/honeypot nodes,
      each phase executed once per distinct sub-digest.
    * ``tree-warm-store`` — the same tree against a pre-materialized
      disk store: zero prefix builds, every node restored from disk.

    All three must produce byte-identical replica payloads — the derived
    block records that check alongside the headline
    ``speedup_tree_vs_flat``. ``by_depth`` reports the planning-time
    cost ledger for the same grid truncated at every tree depth
    (world-only, +honeypot, +signatures); it is exact and untimed.
    """
    manifest = _sweep_orch_manifest(smoke)
    specs = expand_manifest(manifest)
    # two repetitions minimum: the noise yardstick is the best-to-
    # runnerup gap, which is identically zero from a single sample
    warmup, repetitions = (0, 2)

    store_root = temporary_store_root()
    captured: dict[str, FleetResult] = {}
    try:
        warm_store = SnapshotStore(store_root)
        materialize_tree(specs, warm_store)

        def flat_case() -> Callable[[], object]:
            runner = FleetRunner(workers=1, strategy="flat")
            return lambda: captured.__setitem__("flat-reuse", runner.run(specs))

        def tree_case() -> Callable[[], object]:
            runner = FleetRunner(workers=1, strategy="tree")
            return lambda: captured.__setitem__("tree-reuse", runner.run(specs))

        def warm_case() -> Callable[[], object]:
            def run() -> object:
                # a fresh store handle per run: nothing carried in memory,
                # every node restore is a disk read + integrity check
                runner = FleetRunner(
                    workers=1, strategy="tree", store=SnapshotStore(store_root)
                )
                return captured.__setitem__("tree-warm-store", runner.run(specs))

            return run

        results = []
        stats_by_name: dict[str, Stats] = {}
        cases = (
            ("flat-reuse", flat_case),
            ("tree-reuse", tree_case),
            ("tree-warm-store", warm_case),
        )
        for name, make_case in cases:
            stats = summarize(time_repeated(make_case, warmup, repetitions), warmup)
            stats_by_name[name] = stats
            results.append(
                {
                    "name": name,
                    "stats": stats.as_dict(),
                    "replicas": len(specs),
                    "peak_rss_kb": peak_rss_kb(),
                }
            )
    finally:
        remove_store_root(store_root)

    flat = captured["flat-reuse"]
    tree = captured["tree-reuse"]
    warm = captured["tree-warm-store"]
    digests = {name: _replica_payload_digest(result) for name, result in captured.items()}
    derived = {
        "speedup_tree_vs_flat": _speedup(
            stats_by_name["flat-reuse"], stats_by_name["tree-reuse"]
        ),
        "speedup_warm_store_vs_flat": _speedup(
            stats_by_name["flat-reuse"], stats_by_name["tree-warm-store"]
        ),
        "build_cost_avoided_frac": tree.build_cost_avoided_frac,
        "replica_payloads_match": len(set(digests.values())) == 1,
        "tree": dict(tree.tree_stats or {}),
        "ledger": {
            "flat": {"phase_units": flat.phase_units, "phase_builds": flat.phase_builds},
            "tree": {"phase_units": tree.phase_units, "phase_builds": tree.phase_builds},
            "warm": {"phase_units": warm.phase_units, "phase_builds": warm.phase_builds},
        },
        "warm_store": {
            "prefix_builds": warm.prefix_builds,
            "store": dict(warm.store_stats or {}),
        },
        "by_depth": {
            str(PREFIX_DEPTH[prefix]): _planned_costs(
                expand_manifest(_sweep_orch_manifest(smoke, prefix=prefix))
            )
            for prefix in PREFIXES
        },
    }
    settings = {
        "seeds": list(manifest.seeds),
        "preset": manifest.preset,
        "prefix": manifest.prefix,
        "honeypot_days": list(manifest.honeypot_days),
        "replicas": [spec.name for spec in specs],
        "repetitions": repetitions,
    }
    return _envelope("sweep_orch", smoke, settings, results, derived)


#: scenario name -> builder(smoke, workers), in emission order
SCENARIOS: dict[str, Callable[..., dict]] = {
    "tick_loop": bench_tick_loop,
    "sweep": bench_sweep,
    "run_standard": bench_run_standard,
    "world_build": bench_world_build,
    "fleet": bench_fleet,
    "sweep_orch": bench_sweep_orch,
}
