"""Dense value interning for the action log's columns.

:class:`repro.platform.columns.ActionColumns` keeps its hot columns as
flat ``array``-backed integer vectors. The one column whose value is not
naturally a small int — the client endpoint — goes through an
:class:`Interner` (``ActionColumns.endpoints``), which assigns ids
densely in first-seen order. First-seen order is a pure function of the
simulation event sequence, so interned ids are as deterministic as the
records they encode and snapshot/restore cycles (``repro.fleet``)
preserve them: the id table is plain dict state and pickles in
insertion order.

``AccountId`` and media ids need no table: the platform mints account
ids from a dense counter starting at 1 (``InstagramPlatform._account_ids``)
and the media store mints media ids from its own counter, so
account-keyed structures index lists directly (see ``FollowerGraph``'s
row storage) — the degenerate, zero-cost interner.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, Optional, TypeVar

from repro.obs import NULL_OBS, Observability

T = TypeVar("T", bound=Hashable)


class Interner(Generic[T]):
    """Bidirectional value <-> dense-int mapping, first-seen order.

    ``intern()`` is the hot call: a single dict probe when the value is
    already known (the overwhelmingly common case — endpoints repeat
    across millions of records). The reverse table is a
    list, so decoding an id back to its value is one index.
    """

    __slots__ = ("_ids", "_values", "_id_memo", "_obs_hits", "_obs_misses")

    def __init__(self, obs: Optional[Observability] = None, name: str = "interner"):
        _obs = obs if obs is not None else NULL_OBS
        self._ids: dict[T, int] = {}
        self._values: list[T] = []
        #: identity-keyed overlay: ``id(value) -> (value, id)``. Interned
        #: values are frozen dataclasses whose generated ``__hash__``
        #: re-hashes every field on each probe; the overlay resolves a
        #: repeat sighting of the *same object* with one int-keyed get.
        #: Entries hold a strong reference, so a memoized ``id()`` can
        #: never be recycled by another object. Process-local by nature —
        #: dropped from pickles and rebuilt lazily after restore.
        self._id_memo: dict[int, tuple[T, int]] = {}
        self._obs_hits = _obs.counter("platform.intern.lookups", table=name, path="hit")
        self._obs_misses = _obs.counter("platform.intern.lookups", table=name, path="miss")

    def intern(self, value: T) -> int:
        """The dense id for ``value``, allocating on first sight."""
        entry = self._id_memo.get(id(value))
        if entry is not None and entry[0] is value:
            self._obs_hits.inc()
            return entry[1]
        ident = self._ids.get(value)
        if ident is not None:
            self._obs_hits.inc()
        else:
            ident = len(self._values)
            self._ids[value] = ident
            self._values.append(value)
            self._obs_misses.inc()
        self._id_memo[id(value)] = (value, ident)
        return ident

    def note_memoized_hits(self, count: int) -> None:
        """Count ``count`` probes a caller short-circuited by identity memo.

        The batch append path (:meth:`ActionColumns.push_batch`) skips
        ``intern()`` when consecutive rows carry the *same* endpoint
        object. A value eligible for that memo was necessarily interned
        already, so each skipped probe would have been a hit — charging
        them here keeps the hit/miss series byte-identical to the
        per-call path (the batch-toggle equivalence relies on it).
        """
        if count:
            self._obs_hits.inc(count)

    def __getstate__(self) -> dict:
        # the identity overlay is keyed by process-local id() values;
        # drop it and let the restored interner rebuild it lazily
        return {
            "_ids": self._ids,
            "_values": self._values,
            "_obs_hits": self._obs_hits,
            "_obs_misses": self._obs_misses,
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._id_memo = {}

    def value(self, ident: int) -> T:
        """Decode an id back to its value."""
        return self._values[ident]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[T]:
        """Values in id order (deterministic: first-seen order)."""
        return iter(self._values)
