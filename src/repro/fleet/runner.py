"""Deterministic process-pool sweep orchestrator.

:class:`FleetRunner` fans a list of :class:`~repro.fleet.spec.ReplicaSpec`
over shared-nothing worker processes and merges the results back in
**spec order** — never completion order — so the merged payload and the
merged trace are byte-identical for any worker count (enforced by
``tests/test_fleet_runner.py``).

Three strategies, one merge contract:

* ``tree`` (default) — nested prefix reuse. The planner
  (:func:`repro.fleet.tree.plan_tree`) derives the maximal reuse tree
  from the spec list; the runner materializes it level by level
  (parents strictly before children, siblings dispatched to the worker
  pool), resolving each node through the in-memory cache, then the
  optional disk store, and only then building it from its parent's
  frozen bytes. Replicas are grouped by leaf node and dispatched whole.
* ``flat`` — the historical grouping by ``(config digest, prefix)``:
  each group builds its entire chain once. Kept as the tree's
  baseline (its phase ledger is pinned against the tree's in
  ``tests/test_fleet_tree.py``) and as a bisection aid.
* ``no-reuse`` — every replica rebuilds its own chain (the
  ``reuse_prefix=False`` baseline that prices what reuse saves).

Why the fan-out preserves determinism:

* The reuse tree, the build set, and the charged replicas are computed
  in the parent as pure functions of (spec list, cache/store state) —
  scheduling cannot change who builds what.
* Node blobs travel to workers by value (pickled with the submission);
  workers never touch the disk store, so there are no cross-process
  file races and a sweep's store mutations are single-writer.
* Every replica — builder included — starts from a restore of frozen
  envelope bytes (a dump/load normalizes hash-table layout), and
  restored studies are bit-identical going forward by the snapshot
  contract, so *where* a blob was built (pool worker or parent) cannot
  leak into results.
* Workers are ``multiprocessing`` *spawn* processes, not forks: each
  re-imports the code fresh, so no parent-process state leaks in.
* Results carry their original spec index home and are re-slotted by
  it; the merge is a pure function of the spec list.

Cost attribution survives the fan-out: when profiling is on
(``StudyConfig.profile``) each worker's replica trace carries the
deterministic ``cost_total``/``cost_self`` span attrs written by
:class:`repro.obs.prof.CostProfiler` — :func:`canonical_lines` keeps
them (they are seed-pure, unlike ``wall_s``) — and the merged
``__fleet__`` segment rolls the per-replica self-costs up into
``fleet.cost.self_units{depth,kind}`` counters bucketed by the prefix
tree depth each span's root phase belongs to (see
:meth:`repro.fleet.spec.FleetResult.fleet_trace_segment`).
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.fleet.snapshot import (
    SnapshotCache,
    advance_prefix,
    build_prefix,
    config_digest,
    restore_study,
    snapshot_study,
)
from repro.fleet.spec import (
    PREFIX_DEPTH,
    FleetResult,
    ReplicaResult,
    ReplicaSpec,
)
from repro.fleet.store import SnapshotStore
from repro.fleet.tree import TreePlan, graft_config, plan_tree
from repro.obs.trace import canonical_lines, label_replica, trace_lines

#: one flat group = the (spec index, spec) pairs sharing a prefix snapshot
_Group = List[Tuple[int, ReplicaSpec]]

#: one tree leaf group = (spec index, spec, charged-for-a-build) triples
_LeafGroup = List[Tuple[int, ReplicaSpec, bool]]

_STRATEGIES = ("tree", "flat", "no-reuse")


def _run_replica(spec: ReplicaSpec, study: object, prefix_reused: bool) -> ReplicaResult:
    from repro.fleet.arms import resolve_arm

    arm = resolve_arm(spec.arm)
    payload = arm(study, spec.options())  # type: ignore[arg-type]
    trace: List[dict] | None = None
    if spec.config.observability:
        meta = {
            "replica": spec.name,
            "arm": spec.arm,
            "seed": spec.seed,
            "prefix": spec.prefix,
            "prefix_reused": prefix_reused,
        }
        lines = canonical_lines(trace_lines(study.obs, meta))  # type: ignore[attr-defined]
        trace = label_replica(lines, spec.name)  # type: ignore[assignment]
    return ReplicaResult(
        name=spec.name,
        arm=spec.arm,
        seed=spec.seed,
        prefix=spec.prefix,
        payload=payload,
        trace=trace,
        prefix_reused=prefix_reused,
    )


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a restore.

    Unpickling a study allocates enough container objects to trigger
    full collections, and each one re-walks whatever earlier replicas
    left behind. The replica loops collect once at each replica
    boundary instead. The collector's prior state comes back even when
    the body raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _build_node_blob(
    config: StudyConfig, phase: str, parent_blob: Optional[bytes]
) -> bytes:
    """Build one reuse-tree node envelope (module-level for spawn).

    World roots are built from scratch; deeper nodes restore the
    parent's frozen bytes, graft the node's representative config on,
    and advance exactly one chain link.
    """
    if parent_blob is None:
        study = build_prefix(config, phase)
    else:
        study = restore_study(parent_blob)
        graft_config(study, config, depth=PREFIX_DEPTH[phase] - 1)
        advance_prefix(study, phase)
    return snapshot_study(study, phase)


def _run_leaf_group(group: _LeafGroup, blob: bytes) -> List[Tuple[int, ReplicaResult]]:
    """Run the replicas sharing one leaf node (module-level for spawn).

    Each replica forks its own study from the shared envelope bytes and
    grafts its own config back on (sharers may differ in post-prefix
    fields such as ``measurement_days``). The study is cyclic, so each
    one is dropped and collected before the next restore.
    """
    results: List[Tuple[int, ReplicaResult]] = []
    for index, spec, charged in group:
        with _collector_paused():
            study = restore_study(blob)
        graft_config(study, spec.config, depth=spec.depth)
        results.append((index, _run_replica(spec, study, prefix_reused=not charged)))
        del study
        gc.collect()
    return results


def _run_group(
    group: _Group, reuse_prefix: bool
) -> Tuple[List[Tuple[int, ReplicaResult]], int, int]:
    """Run one flat prefix-sharing group; returns (results, builds, restores).

    As in ``_run_leaf_group``, restores run with the collector paused
    and each replica's study is collected before the next one starts.

    Module-level on purpose: spawn workers resolve it by qualified name,
    and its arguments (specs + a bool) pickle without custom support.
    """
    results: List[Tuple[int, ReplicaResult]] = []
    builds = 0
    restores = 0
    cache = SnapshotCache()
    for index, spec in group:
        with _collector_paused():
            if reuse_prefix:
                study, hit = cache.get_or_build(spec.config, spec.prefix)
            else:
                # build fresh, but still round-trip through an envelope so
                # the starting state is identical to the reuse path (a
                # dump/load normalizes hash-table layout either way)
                blob = snapshot_study(build_prefix(spec.config, spec.prefix), spec.prefix)
                study, hit = restore_study(blob), False
                builds += 1
                restores += 1
        results.append((index, _run_replica(spec, study, prefix_reused=hit)))
        del study
        gc.collect()
    if reuse_prefix:
        builds, restores = cache.builds, cache.restores
    return results, builds, restores


def _group_specs(specs: Sequence[ReplicaSpec]) -> List[_Group]:
    """Group specs by (config digest, prefix), first-appearance order."""
    groups: Dict[Tuple[str, str], _Group] = {}
    order: List[Tuple[str, str]] = []
    for index, spec in enumerate(specs):
        key = (config_digest(spec.config), spec.prefix)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((index, spec))
    return [groups[key] for key in order]


class FleetRunner:
    """Runs replica specs across ``workers`` spawn processes.

    ``workers <= 1`` runs everything in-process through the *same*
    scheduling code path, so the pooled and serial outputs are
    byte-comparable by construction. ``reuse_prefix=False`` forces the
    ``no-reuse`` strategy (every replica pays its own chain) — the
    baseline that prices what reuse saves.

    ``store`` plugs in a :class:`~repro.fleet.store.SnapshotStore` for
    cross-invocation node reuse; ``cache`` a (bounded)
    :class:`~repro.fleet.snapshot.SnapshotCache` shared across ``run``
    calls. Both are tree-strategy features. Only the parent process
    touches them — workers receive node bytes by value.
    """

    def __init__(
        self,
        workers: int = 1,
        reuse_prefix: bool = True,
        strategy: str = "tree",
        store: Optional[SnapshotStore] = None,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r} (known: {_STRATEGIES})")
        self.workers = workers
        self.reuse_prefix = reuse_prefix
        self.strategy = strategy if reuse_prefix else "no-reuse"
        self.store = store
        self.cache = cache

    # -- dispatch helper ------------------------------------------------

    def _dispatch(
        self,
        pool: Optional[ProcessPoolExecutor],
        fn: Callable,
        tasks: Sequence[tuple],
    ) -> List[object]:
        """Run ``fn(*task)`` for every task, pooled when it pays off.

        Results come back in task order regardless of completion order.
        """
        if pool is None or len(tasks) <= 1:
            return [fn(*task) for task in tasks]
        futures = [pool.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]

    def _make_pool(self, parallelism: int) -> Optional[ProcessPoolExecutor]:
        if self.workers <= 1 or parallelism <= 1:
            return None
        context = get_context("spawn")
        return ProcessPoolExecutor(
            max_workers=min(self.workers, parallelism), mp_context=context
        )

    # -- strategies -----------------------------------------------------

    def run(self, specs: Sequence[ReplicaSpec]) -> FleetResult:
        specs = list(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("replica names must be unique within a fleet")
        if not specs:
            return FleetResult(
                replicas=[],
                prefix_builds=0,
                prefix_restores=0,
                prefix_groups=0,
                strategy=self.strategy,
            )
        if self.strategy == "tree":
            return self._run_tree(specs)
        return self._run_flat(specs, reuse=self.strategy == "flat")

    def _run_flat(self, specs: List[ReplicaSpec], reuse: bool) -> FleetResult:
        groups = _group_specs(specs)
        pool = self._make_pool(len(groups))
        try:
            outcomes = self._dispatch(
                pool, _run_group, [(group, reuse) for group in groups]
            )
        finally:
            if pool is not None:
                pool.shutdown()
        indexed: List[Tuple[int, ReplicaResult]] = []
        builds = 0
        restores = 0
        for group_results, group_builds, group_restores in outcomes:  # type: ignore[misc]
            indexed.extend(group_results)
            builds += group_builds
            restores += group_restores
        indexed.sort(key=lambda pair: pair[0])
        phase_units = sum(spec.depth for spec in specs)
        if reuse:
            # each group built its whole chain exactly once
            phase_builds = sum(PREFIX_DEPTH[group[0][1].prefix] for group in groups)
        else:
            phase_builds = phase_units
        return FleetResult(
            replicas=[result for _, result in indexed],
            prefix_builds=builds,
            prefix_restores=restores,
            prefix_groups=len(groups),
            phase_units=phase_units,
            phase_builds=phase_builds,
            strategy="flat" if reuse else "no-reuse",
        )

    def _run_tree(self, specs: List[ReplicaSpec]) -> FleetResult:
        plan = plan_tree(specs)
        cache = self.cache if self.cache is not None else SnapshotCache()
        builds = 0
        restores = 0
        charged: set[int] = set()
        level_stats: List[dict] = []
        #: this run's working set of node envelopes; parents are dropped
        #: as soon as no deeper level (and no leaf group) needs them, so
        #: residency tracks the tree's frontier, not its total size
        blobs: Dict[str, bytes] = {}
        needed_as_leaf = set(plan.leaf_keys)
        max_parallelism = max(
            max((len(level) for level in plan.levels), default=1),
            len(set(plan.leaf_keys)),
        )
        pool = self._make_pool(max_parallelism)
        try:
            for depth0, level in enumerate(plan.levels):
                stats = {
                    "phase": plan.nodes[level[0]].phase if level else "",
                    "nodes": len(level),
                    "built": 0,
                    "from_memory": 0,
                    "from_store": 0,
                }
                to_build: List[str] = []
                for key in level:
                    blob = cache.get_blob(key)
                    if blob is not None:
                        stats["from_memory"] += 1
                    elif self.store is not None:
                        blob = self.store.get(key)
                        if blob is not None:
                            stats["from_store"] += 1
                            cache.put_blob(key, blob)
                    if blob is None:
                        to_build.append(key)
                    else:
                        blobs[key] = blob
                tasks = []
                for key in to_build:
                    node = plan.nodes[key]
                    parent_blob = blobs[node.parent] if node.parent is not None else None
                    tasks.append((node.config, node.phase, parent_blob))
                built = self._dispatch(pool, _build_node_blob, tasks)
                for key, blob in zip(to_build, built):
                    assert isinstance(blob, bytes)
                    node = plan.nodes[key]
                    blobs[key] = blob
                    builds += 1
                    stats["built"] += 1
                    if node.parent is not None:
                        restores += 1  # the build restored its parent
                    charged.add(plan.first_needed[key])
                    cache.put_blob(key, blob)
                    if self.store is not None:
                        self.store.put(key, blob)
                level_stats.append(stats)
                if depth0 >= 1:
                    for key in plan.levels[depth0 - 1]:
                        if key not in needed_as_leaf:
                            blobs.pop(key, None)

            leaf_order: List[str] = []
            group_map: Dict[str, _LeafGroup] = {}
            for index, spec in enumerate(specs):
                key = plan.leaf_keys[index]
                if key not in group_map:
                    group_map[key] = []
                    leaf_order.append(key)
                group_map[key].append((index, spec, index in charged))
            outcomes = self._dispatch(
                pool,
                _run_leaf_group,
                [(group_map[key], blobs[key]) for key in leaf_order],
            )
        finally:
            if pool is not None:
                pool.shutdown()
        restores += len(specs)
        indexed: List[Tuple[int, ReplicaResult]] = []
        for group_results in outcomes:
            indexed.extend(group_results)  # type: ignore[arg-type]
        indexed.sort(key=lambda pair: pair[0])
        return FleetResult(
            replicas=[result for _, result in indexed],
            prefix_builds=builds,
            prefix_restores=restores,
            prefix_groups=len(leaf_order),
            phase_units=sum(spec.depth for spec in specs),
            phase_builds=builds,
            strategy="tree",
            tree_stats={
                "depth": plan.depth,
                "nodes": len(plan.nodes),
                "levels": level_stats,
            },
            store_stats=_stable_stats(self.store.stats()) if self.store is not None else None,
            cache_stats=_stable_stats(cache.stats()),
        )


def _stable_stats(stats: dict) -> dict:
    """Stats safe for the worker-invariant merged payload and trace.

    Envelope byte sizes depend on which process serialized the blob
    (hash-randomized container layouts pickle to different lengths), so
    raw ``bytes`` totals would leak the worker count into the merged
    result. Counts are scheduling-independent; bytes stay available on
    :meth:`SnapshotStore.stats` / :meth:`SnapshotCache.stats` directly.
    """
    return {key: value for key, value in stats.items() if key != "bytes"}


def materialize_tree(specs: Sequence[ReplicaSpec], store: SnapshotStore) -> TreePlan:
    """Populate a disk store with every reuse-tree node for ``specs``.

    A warm-up helper (perfbench's ``sweep`` set-up and the warm-store
    tests): after it runs, a tree-strategy fleet over the same specs
    performs zero prefix builds.
    """
    plan = plan_tree(specs)
    blobs: Dict[str, bytes] = {}
    for depth0, level in enumerate(plan.levels):
        for key in level:
            node = plan.nodes[key]
            blob = store.get(key)
            if blob is None:
                parent_blob = blobs[node.parent] if node.parent is not None else None
                blob = _build_node_blob(node.config, node.phase, parent_blob)
                store.put(key, blob)
            blobs[key] = blob
        if depth0 >= 1:
            # the frontier rule of ``_run_tree``: a built level's parents
            # are needed by no deeper level
            for key in plan.levels[depth0 - 1]:
                del blobs[key]
    return plan


__all__ = ["FleetRunner", "materialize_tree"]
