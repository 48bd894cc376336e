"""World snapshots: freeze a study after a prefix phase, fork it later.

The N intervention arms and ablation variants of one seeded config all
share an expensive common prefix — build the world, run the honeypot
phase, learn signatures — and only then diverge. This module lets a
fleet pay that prefix **once**: build it, freeze the whole study into a
schema-versioned pickle envelope, and fork every arm from the frozen
bytes.

Determinism contract: a study restored from a snapshot must be
bit-identical, going forward, to the study that produced it — the same
action stream, the same spans and metrics, the same rendered report
(``tests/test_fleet_snapshot.py`` enforces this property). Three pieces
make that hold:

* ``Study.__getstate__``/``__setstate__`` serialize all behaviour-
  determining state and re-bind only per-process wiring (the obs tick
  source).
* The envelope records every memoized RNG stream's bit-generator state
  explicitly (:meth:`repro.util.rng.SeedSequenceFactory.state_dict`)
  and :func:`restore_study` verifies the restored factory matches it —
  an opaque-pickle-bytes bug cannot silently skew a stream.
* Iteration-order-sensitive consumers of long-lived hash sets order
  their views (hash-table layout is a function of mutation *history*,
  which a dump/load cycle does not preserve).

Invalidation rule: every envelope records
:data:`SNAPSHOT_SCHEMA_VERSION`; bumping the version (any time Study
state layout changes incompatibly) orphans every old envelope, and
:func:`restore_study` refuses envelopes from another version rather
than guessing. The nested reuse tree (:mod:`repro.fleet.tree`) folds
the same version into every node key, so disk-store entries are
orphaned by the same bump.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
from typing import Dict

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.fleet.spec import (
    PREFIX_BUILD_WORLD,
    PREFIX_DEPTH,
    PREFIX_HONEYPOT,
    PREFIX_SIGNATURES,
    PREFIXES,
)

#: bumped whenever Study's pickled layout or the envelope shape changes
SNAPSHOT_SCHEMA_VERSION = 15


class SnapshotError(RuntimeError):
    """A snapshot envelope failed schema or integrity verification."""


def _canonical(obj: object) -> object:
    """JSON-able canonical form of a config tree.

    Dataclasses become name-tagged dicts, enums their values, and sets /
    frozensets sorted lists (by their own canonical JSON), so one config
    always digests to one string regardless of hash seeding or set
    construction history.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (_canonical(item) for item in obj),
            key=lambda c: json.dumps(c, sort_keys=True),
        )
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def config_digest(config: StudyConfig) -> str:
    """Stable hex digest identifying one config (and its seed)."""
    text = json.dumps(_canonical(config), sort_keys=True)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def rng_digest(states: Dict[str, dict]) -> str:
    """Hex digest of an explicit RNG state capture."""
    text = json.dumps(states, sort_keys=True, default=int)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def advance_prefix(study: Study, phase: str) -> None:
    """Advance a live study across exactly one prefix-chain link.

    ``build-world`` is the chain root (construction itself) and cannot
    be applied to an existing study.
    """
    if phase == PREFIX_HONEYPOT:
        study.run_honeypot_phase()
    elif phase == PREFIX_SIGNATURES:
        study.learn_signatures()
    else:
        raise ValueError(
            f"cannot advance an existing study across {phase!r} "
            f"(advanceable: {(PREFIX_HONEYPOT, PREFIX_SIGNATURES)})"
        )


def build_prefix(config: StudyConfig, prefix: str) -> Study:
    """Run a fresh study up to (and including) the named prefix phase."""
    if prefix not in PREFIXES:
        raise ValueError(f"unknown prefix {prefix!r} (known: {PREFIXES})")
    study = Study(config)
    for phase in PREFIXES[1 : PREFIX_DEPTH[prefix]]:
        advance_prefix(study, phase)
    return study


def snapshot_study(study: Study, prefix: str) -> bytes:
    """Freeze a study into a schema-versioned envelope."""
    if prefix not in PREFIXES:
        raise ValueError(f"unknown prefix {prefix!r} (known: {PREFIXES})")
    rng_state = study.seeds.state_dict()
    envelope = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "prefix": prefix,
        "config_digest": config_digest(study.config),
        "tick": study.clock.now,
        "rng_digest": rng_digest(rng_state),
        "rng_state": rng_state,
        "study": study,
    }
    return pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)


def restore_study(blob: bytes) -> Study:
    """Thaw an envelope back into a live study, verifying as it goes."""
    try:
        envelope = pickle.loads(blob)
    except Exception as exc:  # unreadable bytes are a schema failure
        raise SnapshotError(f"snapshot envelope is unreadable: {exc}") from exc
    if not isinstance(envelope, dict) or "schema_version" not in envelope:
        raise SnapshotError("snapshot envelope is missing its schema_version")
    version = envelope["schema_version"]
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema_version {version!r} != current "
            f"{SNAPSHOT_SCHEMA_VERSION}; rebuild the prefix"
        )
    study = envelope["study"]
    if not isinstance(study, Study):
        raise SnapshotError("snapshot envelope does not carry a Study")
    restored_digest = rng_digest(study.seeds.state_dict())
    if restored_digest != envelope["rng_digest"]:
        raise SnapshotError(
            "restored RNG streams do not match the captured state "
            f"({restored_digest} != {envelope['rng_digest']})"
        )
    if study.clock.now != envelope["tick"]:
        raise SnapshotError(
            f"restored clock tick {study.clock.now} != captured {envelope['tick']}"
        )
    return study


__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "PREFIX_BUILD_WORLD",
    "PREFIX_HONEYPOT",
    "PREFIX_SIGNATURES",
    "SnapshotError",
    "advance_prefix",
    "build_prefix",
    "config_digest",
    "restore_study",
    "rng_digest",
    "snapshot_study",
]
