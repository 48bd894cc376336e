"""Deterministic multi-process replication: specs, snapshots, sweeps.

The fleet layer turns one seeded :class:`~repro.core.study.Study` into
many — seed sweeps, intervention arms, ablations, declarative manifest
grids — without giving up the repo's bit-reproducibility contract. See
``DESIGN.md`` §10 for the spec/merge ordering contract and §13 for the
sweep orchestrator (reuse trees, the disk snapshot store, manifests).
"""

from repro.fleet.arms import ARMS, resolve_arm
from repro.fleet.manifest import (
    MANIFEST_SCHEMA_VERSION,
    SERVICE_MIXES,
    ArmSpec,
    ManifestError,
    SweepManifest,
    expand_manifest,
    load_manifest,
    parse_manifest,
)
from repro.fleet.runner import FleetRunner, materialize_tree
from repro.fleet.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    advance_prefix,
    build_prefix,
    config_digest,
    restore_study,
    snapshot_study,
)
from repro.fleet.spec import (
    FLEET_SCHEMA_VERSION,
    FLEET_TRACE_REPLICA,
    PREFIX_BUILD_WORLD,
    PREFIX_DEPTH,
    PREFIX_HONEYPOT,
    PREFIX_SIGNATURES,
    PREFIXES,
    FleetResult,
    ReplicaResult,
    ReplicaSpec,
    seed_sweep,
)
from repro.fleet.store import (
    STORE_SCHEMA_VERSION,
    SnapshotStore,
    remove_store_root,
    temporary_store_root,
)
from repro.fleet.tree import (
    PrefixNode,
    TreePlan,
    graft_config,
    node_chain,
    phase_fields,
    phase_subdigest,
    plan_tree,
)

__all__ = [
    "ARMS",
    "FLEET_SCHEMA_VERSION",
    "FLEET_TRACE_REPLICA",
    "MANIFEST_SCHEMA_VERSION",
    "PREFIX_BUILD_WORLD",
    "PREFIX_DEPTH",
    "PREFIX_HONEYPOT",
    "PREFIX_SIGNATURES",
    "PREFIXES",
    "SERVICE_MIXES",
    "SNAPSHOT_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "ArmSpec",
    "FleetResult",
    "FleetRunner",
    "ManifestError",
    "PrefixNode",
    "ReplicaResult",
    "ReplicaSpec",
    "SnapshotError",
    "SnapshotStore",
    "SweepManifest",
    "TreePlan",
    "advance_prefix",
    "build_prefix",
    "config_digest",
    "expand_manifest",
    "graft_config",
    "load_manifest",
    "materialize_tree",
    "node_chain",
    "parse_manifest",
    "phase_fields",
    "phase_subdigest",
    "plan_tree",
    "remove_store_root",
    "resolve_arm",
    "restore_study",
    "seed_sweep",
    "snapshot_study",
    "temporary_store_root",
]
