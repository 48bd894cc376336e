"""Nested prefix-snapshot reuse trees.

Keying a whole prefix chain by ``(config digest, prefix)`` would let
two configs differing only in ``honeypot_days`` share *nothing*, even
though they build the identical world. This module keys snapshots by a
**reuse tree** instead: one node per (chain position, phase-relevant
config slice), where a child snapshot is derived from its parent's
frozen bytes. Replicas that share a world but diverge at honeypot
config fork at the deepest common ancestor, and a 200-replica threshold
sweep pays world-build once.

Phase-scoped sub-digests
------------------------
Each chain link consumes a disjoint slice of :class:`StudyConfig`:

* ``build-world`` — everything except the later slices. Membership is
  computed by *exclusion*, so a config field added in a future PR lands
  in the world slice by default: conservative (it may split worlds that
  could have been shared) but never wrong (it cannot silently share
  state across configs that differ).
* ``honeypot`` — :data:`HONEYPOT_FIELDS` (deployment batch sizes, the
  inactive-baseline count, phase length).
* ``signatures`` — nothing: learning is a pure function of the state
  the honeypot phase left behind.
* ``measurement_days`` is consumed only after every prefix phase and
  belongs to no node (:data:`POST_PREFIX_FIELDS`).

A node's key is the running BLAKE2 digest of its ancestry — parent key,
phase name, the canonical JSON of the phase slice, and
:data:`~repro.fleet.snapshot.SNAPSHOT_SCHEMA_VERSION` (so a schema bump
orphans on-disk nodes the same way it orphans every envelope).
Equal keys ⇒ byte-equivalent snapshots, because every ancestor slice
agreed.

Config grafting
---------------
A node's snapshot embeds the *representative* config — the first spec
(in spec order) that needed the node. Sharers may legitimately differ
in slices no ancestor consumed (e.g. ``measurement_days``), so whoever
restores a node's bytes must graft its own config back on before
consuming any post-node field; :func:`graft_config` is that one
sanctioned mutation point, and it refuses to change any field an
ancestor phase already consumed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.fleet.snapshot import SNAPSHOT_SCHEMA_VERSION, _canonical
from repro.fleet.spec import PREFIX_BUILD_WORLD, PREFIX_DEPTH, PREFIXES, ReplicaSpec

#: StudyConfig fields consumed by the honeypot phase (and nothing earlier)
HONEYPOT_FIELDS: Tuple[str, ...] = (
    "honeypots_empty_per_batch",
    "honeypots_lived_in_per_batch",
    "inactive_honeypots",
    "honeypot_days",
)

#: fields consumed only after every prefix phase — they never split a node
POST_PREFIX_FIELDS: Tuple[str, ...] = ("measurement_days",)


def phase_fields(phase: str) -> Tuple[str, ...]:
    """The StudyConfig field names whose values the phase consumes."""
    if phase == PREFIX_BUILD_WORLD:
        later = set(HONEYPOT_FIELDS) | set(POST_PREFIX_FIELDS)
        return tuple(f.name for f in fields(StudyConfig) if f.name not in later)
    if phase == "honeypot":
        return HONEYPOT_FIELDS
    if phase == "signatures":
        return ()
    raise ValueError(f"unknown prefix phase {phase!r} (known: {PREFIXES})")


def phase_subdigest(config: StudyConfig, phase: str) -> str:
    """Digest of the config slice one phase consumes."""
    slice_ = {name: _canonical(getattr(config, name)) for name in phase_fields(phase)}
    text = json.dumps(slice_, sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def node_chain(config: StudyConfig, prefix: str) -> List[Tuple[str, str]]:
    """``(phase, node key)`` pairs from the world root down to ``prefix``.

    Keys are cumulative: each folds the parent key, the phase, the
    phase's sub-digest, and the snapshot schema version.
    """
    if prefix not in PREFIXES:
        raise ValueError(f"unknown prefix {prefix!r} (known: {PREFIXES})")
    chain: List[Tuple[str, str]] = []
    parent_key = ""
    for phase in PREFIXES[: PREFIX_DEPTH[prefix]]:
        text = json.dumps(
            [parent_key, phase, phase_subdigest(config, phase), SNAPSHOT_SCHEMA_VERSION]
        )
        key = hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
        chain.append((phase, key))
        parent_key = key
    return chain


def graft_config(study: Study, config: StudyConfig, depth: int) -> None:
    """Swap a restored study's embedded config for a sharer's config.

    ``depth`` is the chain position of the snapshot the study was
    restored from — only the slices of phases already consumed must
    agree, which is exactly what equal node keys guarantee. The guard
    re-checks that invariant at runtime so a field-slicing bug fails
    loudly instead of silently grafting divergent world state.
    """
    if not 1 <= depth <= len(PREFIXES):
        raise ValueError(f"depth must be in 1..{len(PREFIXES)}, got {depth}")
    current = study.config
    if current is config:
        return
    for phase in PREFIXES[:depth]:
        if phase_subdigest(current, phase) != phase_subdigest(config, phase):
            raise ValueError(
                f"cannot graft config: {phase!r} slice differs from the "
                "snapshot's representative config"
            )
    study.config = config


@dataclass(frozen=True)
class PrefixNode:
    """One reuse-tree node: a snapshot point shared by ≥1 replicas."""

    key: str
    phase: str
    #: 1-based chain position (``PREFIX_DEPTH[phase]``)
    depth: int
    #: parent node key; None for world roots
    parent: Optional[str]
    #: the first spec (in spec order) that needs this node — its config
    #: builds the node's snapshot
    config: StudyConfig


@dataclass
class TreePlan:
    """The maximal reuse tree over one fleet's replica specs."""

    #: node key → node
    nodes: Dict[str, PrefixNode]
    #: node keys grouped by depth (levels[0] = world roots), each level
    #: in first-appearance spec order
    levels: List[List[str]]
    #: per spec index, the key of its chain's deepest node
    leaf_keys: List[str]
    #: node key → smallest spec index whose chain contains the node
    first_needed: Dict[str, int]

    @property
    def depth(self) -> int:
        return len(self.levels)


def plan_tree(specs: Sequence[ReplicaSpec]) -> TreePlan:
    """Plan the maximal reuse tree for a replica set.

    Walks every spec's node chain in spec order; the first spec to
    mention a key becomes the node's representative. The result is a
    pure function of the spec list — no scheduling state involved — so
    every worker count sees the identical tree.
    """
    nodes: Dict[str, PrefixNode] = {}
    levels: List[List[str]] = []
    leaf_keys: List[str] = []
    first_needed: Dict[str, int] = {}
    for index, spec in enumerate(specs):
        parent_key: Optional[str] = None
        chain = node_chain(spec.config, spec.prefix)
        for depth, (phase, key) in enumerate(chain, start=1):
            if key not in nodes:
                nodes[key] = PrefixNode(
                    key=key,
                    phase=phase,
                    depth=depth,
                    parent=parent_key,
                    config=spec.config,
                )
                while len(levels) < depth:
                    levels.append([])
                levels[depth - 1].append(key)
                first_needed[key] = index
            parent_key = key
        leaf_keys.append(chain[-1][1])
    return TreePlan(
        nodes=nodes, levels=levels, leaf_keys=leaf_keys, first_needed=first_needed
    )


__all__ = [
    "HONEYPOT_FIELDS",
    "POST_PREFIX_FIELDS",
    "PrefixNode",
    "TreePlan",
    "graft_config",
    "node_chain",
    "phase_fields",
    "phase_subdigest",
    "plan_tree",
]
