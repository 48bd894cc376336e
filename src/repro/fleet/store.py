"""Disk-backed, digest-addressed snapshot store.

Cross-invocation persistence for reuse-tree nodes: the tree scheduler
writes every node envelope it builds under its node key, and a later
sweep — same grid, one changed threshold — restores everything above
the divergence point instead of rebuilding it.

Layout (all under one ``root`` directory)::

    root/
      index.json            {"schema_version", "seq", "entries": {key: {bytes, seq}}}
      envelopes/<key>.snap   one JSON header line + raw envelope bytes

Integrity: every envelope file opens with a single JSON header line
recording the store schema version, the node key, the payload length,
and the payload's BLAKE2 digest; :meth:`SnapshotStore.get` re-verifies
all four on every read. A failed check — truncation, bit rot, a
half-written file from a crashed process — deletes the entry and
returns ``None``: corruption degrades to a rebuild, never to a crash
and never to trusting bad bytes.

Atomicity: writes land in a same-directory temp file first and are
published with ``os.replace``, so a reader can never observe a partial
envelope under its final name.

Eviction: size-bounded LRU. Recency is a persisted monotonic sequence
counter in the index (bumped on every hit and write) — *not* file
mtimes, which would smuggle wall-clock state into behaviour the
determinism contract can't see. Evicting by lowest sequence is then a
pure function of the access history.

This module is the repo's only sanctioned home for snapshot disk I/O
(plus the ``tempfile``/``shutil`` throwaway-root helpers below): the
ARCH004 source rule (``tests/test_source_rules.py``) confines those
imports to ``repro/fleet/`` the same way it confines ``pickle`` and
process pools.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Dict, Optional

from repro.obs.facade import NULL_OBS, Observability

#: bumped whenever the envelope-file or index layout changes incompatibly
STORE_SCHEMA_VERSION = 1

_INDEX_NAME = "index.json"
_ENVELOPE_DIR = "envelopes"
_SUFFIX = ".snap"


def _payload_digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class SnapshotStore:
    """Digest-addressed envelope files with verified reads and LRU bounds."""

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = str(root)
        self.max_bytes = max_bytes
        self._envelope_dir = os.path.join(self.root, _ENVELOPE_DIR)
        os.makedirs(self._envelope_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corruptions = 0
        self.evictions = 0
        self._hit_counter = obs.counter("fleet.store.hits")
        self._miss_counter = obs.counter("fleet.store.misses")
        self._write_counter = obs.counter("fleet.store.writes")
        self._corruption_counter = obs.counter("fleet.store.corruptions")
        self._eviction_counter = obs.counter("fleet.store.evictions")
        self._bytes_gauge = obs.gauge("fleet.store.bytes")
        self._seq = 0
        self._entries: Dict[str, Dict[str, int]] = {}
        self._load_index()

    # -- public API -----------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The verified envelope under ``key``, or None (miss/corrupt)."""
        path = self._path(key)
        if not os.path.exists(path):
            self.misses += 1
            self._miss_counter.inc()
            if self._entries.pop(key, None) is not None:
                self._save_index()
            return None
        blob = self._read_verified(path, key)
        if blob is None:
            self.corruptions += 1
            self._corruption_counter.inc()
            self.misses += 1
            self._miss_counter.inc()
            os.remove(path)
            self._entries.pop(key, None)
            self._save_index()
            return None
        self.hits += 1
        self._hit_counter.inc()
        self._seq += 1
        self._entries.setdefault(key, {"bytes": self._file_bytes(path)})["seq"] = self._seq
        self._save_index()
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Atomically (over)write the envelope under ``key``."""
        path = self._path(key)
        header = json.dumps(
            {
                "store_schema": STORE_SCHEMA_VERSION,
                "key": key,
                "payload_bytes": len(blob),
                "payload_digest": _payload_digest(blob),
            },
            sort_keys=True,
        ).encode("ascii")
        data = header + b"\n" + blob
        tmp = path + f".{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        self.writes += 1
        self._write_counter.inc()
        self._seq += 1
        self._entries[key] = {"bytes": len(data), "seq": self._seq}
        self._evict()
        self._save_index()

    def keys(self) -> list:
        """Stored node keys, most recently used last."""
        return sorted(self._entries, key=lambda k: self._entries[k]["seq"])

    @property
    def bytes_stored(self) -> int:
        return sum(entry["bytes"] for entry in self._entries.values())

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.bytes_stored,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corruptions": self.corruptions,
            "evictions": self.evictions,
        }

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> str:
        if not key or not all(c.isalnum() or c in "-_" for c in key):
            raise ValueError(f"store keys must be filesystem-safe digests, got {key!r}")
        return os.path.join(self._envelope_dir, key + _SUFFIX)

    @staticmethod
    def _file_bytes(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    @staticmethod
    def _read_verified(path: str, key: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        newline = data.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(data[:newline].decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(header, dict):
            return None
        payload = data[newline + 1 :]
        if (
            header.get("store_schema") != STORE_SCHEMA_VERSION
            or header.get("key") != key
            or header.get("payload_bytes") != len(payload)
            or header.get("payload_digest") != _payload_digest(payload)
        ):
            return None
        return payload

    def _evict(self) -> None:
        if self.max_bytes is None:
            return
        while self._entries and self.bytes_stored > self.max_bytes:
            victim = min(self._entries, key=lambda k: self._entries[k]["seq"])
            del self._entries[victim]
            path = os.path.join(self._envelope_dir, victim + _SUFFIX)
            if os.path.exists(path):
                os.remove(path)
            self.evictions += 1
            self._eviction_counter.inc()

    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_NAME)

    def _load_index(self) -> None:
        raw: dict = {}
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                parsed = json.load(handle)
            if isinstance(parsed, dict) and parsed.get("schema_version") == STORE_SCHEMA_VERSION:
                raw = parsed
        except (OSError, ValueError):
            raw = {}
        seq = raw.get("seq")
        self._seq = seq if isinstance(seq, int) and seq >= 0 else 0
        entries = raw.get("entries")
        if isinstance(entries, dict):
            for key, entry in entries.items():
                if (
                    isinstance(entry, dict)
                    and isinstance(entry.get("bytes"), int)
                    and isinstance(entry.get("seq"), int)
                ):
                    self._entries[str(key)] = {
                        "bytes": entry["bytes"],
                        "seq": entry["seq"],
                    }
        # reconcile with what is actually on disk: drop index entries
        # whose file vanished, adopt files the index never heard of
        # (sorted by name so adoption order is deterministic)
        on_disk = sorted(
            name[: -len(_SUFFIX)]
            for name in os.listdir(self._envelope_dir)
            if name.endswith(_SUFFIX)
        )
        for key in list(self._entries):
            if key not in set(on_disk):
                del self._entries[key]
        for key in on_disk:
            if key not in self._entries:
                self._seq += 1
                self._entries[key] = {
                    "bytes": self._file_bytes(os.path.join(self._envelope_dir, key + _SUFFIX)),
                    "seq": self._seq,
                }
        self._save_index()

    def _save_index(self) -> None:
        payload = {
            "schema_version": STORE_SCHEMA_VERSION,
            "seq": self._seq,
            "entries": self._entries,
        }
        path = self._index_path()
        tmp = path + f".{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        self._bytes_gauge.set(self.bytes_stored)


def temporary_store_root(prefix: str = "repro-snap-store-") -> str:
    """A throwaway store root directory (caller removes it when done).

    Lives here because ``tempfile`` is confined to the fleet layer by
    ARCH004 — tests and scripts get their scratch store through this
    helper instead of importing tempfile themselves.
    """
    return tempfile.mkdtemp(prefix=prefix)


def remove_store_root(root: str) -> None:
    """Best-effort recursive removal of a store root."""
    shutil.rmtree(root, ignore_errors=True)


__all__ = [
    "STORE_SCHEMA_VERSION",
    "SnapshotStore",
    "remove_store_root",
    "temporary_store_root",
]
