"""The reference fleet: every replica pays for its own prefix.

:func:`run_without_reuse` is what :class:`repro.fleet.FleetRunner` must
equal on every replica payload and trace. Each replica builds its whole
prefix chain from scratch, round-trips it through an envelope (a
dump/load normalizes hash-table layout, as every runner restore does)
and runs its arm. Nothing is planned, shared, stored or grafted.

:func:`flat_phase_builds` prices the whole-config grouping the reuse
tree replaced: one chain build per distinct ``(config digest, prefix)``.
"""

from __future__ import annotations

import gc
from typing import Sequence

from repro.fleet import (
    PREFIX_DEPTH,
    ReplicaResult,
    ReplicaSpec,
    build_prefix,
    config_digest,
    restore_study,
    snapshot_study,
)
from repro.fleet.runner import _run_replica


def run_without_reuse(specs: Sequence[ReplicaSpec]) -> list[ReplicaResult]:
    """Every replica, in spec order, from its own freshly built prefix."""
    results = []
    for spec in specs:
        blob = snapshot_study(build_prefix(spec.config, spec.prefix), spec.prefix)
        study = restore_study(blob)
        results.append(_run_replica(spec, study, prefix_reused=False))
        del study
        gc.collect()
    return results


def flat_phase_builds(specs: Sequence[ReplicaSpec]) -> int:
    """Phase builds of one whole chain per distinct (config, prefix)."""
    groups = {(config_digest(spec.config), spec.prefix) for spec in specs}
    return sum(PREFIX_DEPTH[prefix] for _, prefix in groups)
