"""Deterministic process-pool sweep orchestrator.

:class:`FleetRunner` fans a list of :class:`~repro.fleet.spec.ReplicaSpec`
over shared-nothing worker processes and merges the results back in
**spec order** — never completion order — so the merged payload and the
merged trace are byte-identical for any worker count (enforced by
``tests/test_fleet_runner.py``).

The runner reuses prefixes through a nested tree. The planner
(:func:`repro.fleet.tree.plan_tree`) derives the maximal reuse tree from
the spec list; :func:`_materialize_levels` resolves it level by level
(parents strictly before children, siblings dispatched to the worker
pool), taking each node from the optional disk store or else building
it from its parent's frozen bytes. Replicas are grouped by leaf node and
dispatched whole. The reference every replica is compared against —
build the prefix, round-trip it through an envelope, run the arm — lives
with the tests (``tests/oracles/fleet.py``).

Why the fan-out preserves determinism:

* The reuse tree, the build set, and the charged replicas are computed
  in the parent as pure functions of (spec list, store state) —
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
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.fleet.snapshot import (
    advance_prefix,
    build_prefix,
    restore_study,
    snapshot_study,
)
from repro.fleet.spec import PREFIX_DEPTH, FleetResult, ReplicaResult, ReplicaSpec
from repro.fleet.store import SnapshotStore
from repro.fleet.tree import TreePlan, graft_config, plan_tree
from repro.obs.trace import canonical_lines, label_replica, trace_lines

#: one leaf group = (spec index, spec, charged-for-a-build) triples
_LeafGroup = List[Tuple[int, ReplicaSpec, bool]]


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
    left behind. The replica loop collects once at each replica
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


def _dispatch(
    pool: Optional[ProcessPoolExecutor], fn: Callable, tasks: Sequence[tuple]
) -> List[object]:
    """Run ``fn(*task)`` for every task, pooled when it pays off.

    Results come back in task order regardless of completion order.
    """
    if pool is None or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    futures = [pool.submit(fn, *task) for task in tasks]
    return [future.result() for future in futures]


def _materialize_levels(
    plan: TreePlan,
    store: Optional[SnapshotStore],
    pool: Optional[ProcessPoolExecutor] = None,
) -> Tuple[Dict[str, bytes], List[dict], List[str]]:
    """Resolve every node of ``plan``, parents strictly before children.

    A node comes from ``store`` when it holds the key; otherwise it is
    built from its parent's frozen bytes — on ``pool`` when there is
    one, in this process when not — and written to the store. Once a
    level is resolved its parents are dropped unless they are leaves,
    so residency tracks the tree's frontier, not its total size.

    Returns the resident envelopes (every leaf among them), one stats
    dict per level, and the built node keys in build order.
    """
    blobs: Dict[str, bytes] = {}
    level_stats: List[dict] = []
    built: List[str] = []
    leaves = set(plan.leaf_keys)
    for depth0, level in enumerate(plan.levels):
        to_build: List[str] = []
        for key in level:
            blob = store.get(key) if store is not None else None
            if blob is None:
                to_build.append(key)
            else:
                blobs[key] = blob
        tasks = []
        for key in to_build:
            node = plan.nodes[key]
            parent_blob = blobs[node.parent] if node.parent is not None else None
            tasks.append((node.config, node.phase, parent_blob))
        for key, blob in zip(to_build, _dispatch(pool, _build_node_blob, tasks)):
            assert isinstance(blob, bytes)
            blobs[key] = blob
            if store is not None:
                store.put(key, blob)
        built.extend(to_build)
        level_stats.append(
            {
                "phase": plan.nodes[level[0]].phase,
                "nodes": len(level),
                "built": len(to_build),
                # nothing outlives one run in memory; kept for the
                # payload shape
                "from_memory": 0,
                "from_store": len(level) - len(to_build),
            }
        )
        if depth0 >= 1:
            for key in plan.levels[depth0 - 1]:
                if key not in leaves:
                    del blobs[key]
    return blobs, level_stats, built


class FleetRunner:
    """Runs replica specs across ``workers`` spawn processes.

    ``workers <= 1`` runs everything in-process through the *same*
    scheduling code path, so the pooled and serial outputs are
    byte-comparable by construction. ``store`` plugs in a
    :class:`~repro.fleet.store.SnapshotStore` for cross-invocation node
    reuse; only the parent process touches it — workers receive node
    bytes by value. ``strategy`` accepts only ``"tree"``.
    """

    def __init__(
        self,
        workers: int = 1,
        strategy: str = "tree",
        store: Optional[SnapshotStore] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if strategy != "tree":
            raise ValueError(f"unknown strategy {strategy!r} (known: 'tree')")
        self.workers = workers
        self.store = store

    def _make_pool(self, parallelism: int) -> Optional[ProcessPoolExecutor]:
        if self.workers <= 1 or parallelism <= 1:
            return None
        context = get_context("spawn")
        return ProcessPoolExecutor(
            max_workers=min(self.workers, parallelism), mp_context=context
        )

    def run(self, specs: Sequence[ReplicaSpec]) -> FleetResult:
        specs = list(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("replica names must be unique within a fleet")
        if not specs:
            return FleetResult(
                replicas=[], prefix_builds=0, prefix_restores=0, prefix_groups=0
            )
        plan = plan_tree(specs)
        parallelism = max(
            max(len(level) for level in plan.levels), len(set(plan.leaf_keys))
        )
        pool = self._make_pool(parallelism)
        try:
            blobs, level_stats, built = _materialize_levels(plan, self.store, pool)
            charged = {plan.first_needed[key] for key in built}
            groups: Dict[str, _LeafGroup] = {}
            for index, spec in enumerate(specs):
                groups.setdefault(plan.leaf_keys[index], []).append(
                    (index, spec, index in charged)
                )
            outcomes = _dispatch(
                pool,
                _run_leaf_group,
                [(group, blobs[key]) for key, group in groups.items()],
            )
        finally:
            if pool is not None:
                pool.shutdown()
        indexed: List[Tuple[int, ReplicaResult]] = []
        for group_results in outcomes:
            indexed.extend(group_results)  # type: ignore[arg-type]
        indexed.sort(key=lambda pair: pair[0])
        # each non-root build restored its parent; each replica its leaf
        restores = sum(plan.nodes[key].parent is not None for key in built) + len(specs)
        return FleetResult(
            replicas=[result for _, result in indexed],
            prefix_builds=len(built),
            prefix_restores=restores,
            prefix_groups=len(groups),
            phase_units=sum(spec.depth for spec in specs),
            phase_builds=len(built),
            tree_stats={
                "depth": plan.depth,
                "nodes": len(plan.nodes),
                "levels": level_stats,
            },
            store_stats=_stable_stats(self.store.stats()) if self.store is not None else None,
        )


def _stable_stats(stats: dict) -> dict:
    """Stats safe for the worker-invariant merged payload and trace.

    Envelope byte sizes depend on which process serialized the blob
    (hash-randomized container layouts pickle to different lengths), so
    raw ``bytes`` totals would leak the worker count into the merged
    result. Counts are scheduling-independent; bytes stay available on
    :meth:`SnapshotStore.stats` directly.
    """
    return {key: value for key, value in stats.items() if key != "bytes"}


def materialize_tree(specs: Sequence[ReplicaSpec], store: SnapshotStore) -> TreePlan:
    """Populate a disk store with every reuse-tree node for ``specs``.

    A warm-up helper (perfbench's ``sweep`` set-up and the warm-store
    tests): after it runs, a fleet over the same specs performs zero
    prefix builds.
    """
    plan = plan_tree(specs)
    _materialize_levels(plan, store)
    return plan


__all__ = ["FleetRunner", "materialize_tree"]
