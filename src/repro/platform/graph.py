"""The follower graph.

A directed graph over accounts: an edge A -> B means "A follows B".
Out-degree is "number followed" (Figure 3's metric); in-degree is
"number of followers" (Figure 4's metric).

:class:`FollowerGraph` is a columnar store. Its equivalence with the
brute-force ``defaultdict(set)`` reference graph in
``tests/oracles/graph.py`` is property-tested in
``tests/test_platform_graph_columnar.py``. The two sides are stored
asymmetrically, matching how the simulation reads them:

* **Out-rows** are insertion-ordered dicts used as sets (``dst ->
  None``), indexed directly by account id in a dense list (account ids
  are minted from a counter starting at 1, so the id *is* the row
  index — no interner table needed). ``is_following`` — the hottest
  graph call — is one list index and one dict probe, and the world
  wirer's ``bulk_follow_new`` builds a whole row with a single
  ``dict.fromkeys`` call instead of one set insert per edge.
* **In-rows** are never membership-probed, only counted and iterated,
  so the follower side keeps no per-account containers at all for
  bulk-wired edges: the raw (src, dst) pairs accumulate in flat
  ``array('q')`` columns and are lexsorted into a CSR index (offsets +
  sorted sources) on first read. Post-build ``follow``/``unfollow``
  mutations land in small per-account overlay sets merged at read
  time, so the CSR never has to be rebuilt for them.

Sorted ``array('q')`` snapshots backing the non-copying view accessors
are cached per account in side tables and dropped on mutation.

Beyond the original mutation/degree API, the graph exposes:

* ``following_view`` / ``followers_view`` — **sorted** integer
  sequences, the cached ``array('q')`` returned without copying. Callers
  must not mutate the result and must not hold it across graph
  mutations. Sorted order (not hash order) is the contract: RNG-indexed
  picks over a view are then reproducible across snapshot/restore
  cycles, which do not preserve set iteration order.
* ``bulk_follow_new`` — the population wirer's edge loop pushed down
  into the store: add edges from one source over a candidate stream,
  skipping self-picks and duplicates, up to a limit. Same skip
  semantics as calling ``follow`` per edge (and that is literally what
  the reference implementation does).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.obs import NULL_OBS, Observability
from repro.platform.errors import InvalidActionError
from repro.platform.models import AccountId

#: typecode of adjacency arrays: signed 64-bit, matching AccountId's range
_ID_TYPECODE = "q"

_EMPTY_VIEW: Sequence[AccountId] = array(_ID_TYPECODE)


class FollowerGraph:
    """Directed follow edges on columnar, dense-indexed adjacency rows.

    Edge mutations count into ``platform.graph.edge_ops{op=...}`` — the
    "graph" work units that perfbench reports as
    ``obs.cost_units.graph`` (classified by :mod:`repro.obs.prof`).
    CSR rebuilds are deliberately *not* counted: the lazy index
    re-derives after every snapshot restore, so its rebuild count
    depends on how many envelope boundaries a study crossed (a
    scheduling artifact), and a cost unit must be invariant under
    re-scheduling (DESIGN.md §8). Write-only telemetry: obs-off runs
    are bit-identical.
    """

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_follows = _obs.counter("platform.graph.edge_ops", op="follow")
        self._obs_unfollows = _obs.counter("platform.graph.edge_ops", op="unfollow")
        self._obs_bulk = _obs.counter("platform.graph.edge_ops", op="bulk")
        #: out-rows indexed directly by account id (dense: ids are
        #: counter-minted); each row is an insertion-ordered dict used as
        #: a set of followed accounts
        self._out: list[dict[AccountId, None] | None] = []
        #: cached sorted array('q') snapshots of rows, dropped on
        #: mutation; only accounts whose views were read carry an entry
        self._out_views: dict[AccountId, array] = {}
        self._in_views: dict[AccountId, array] = {}
        self._edge_count = 0
        #: append-only raw edge columns from ``bulk_follow_new`` — the
        #: follower side's storage of record for bulk-wired edges
        self._bulk_src = array(_ID_TYPECODE)
        self._bulk_dst = array(_ID_TYPECODE)
        #: CSR over the raw columns, rebuilt lazily when they have grown
        #: (see :meth:`_refresh_csr`): ``_csr_srcs`` is the source column
        #: lexsorted by (dst, src); ``_csr_indptr[dst] ..
        #: _csr_indptr[dst + 1]`` bounds dst's slice
        self._csr_indptr: np.ndarray | None = None
        self._csr_srcs: np.ndarray | None = None
        self._csr_edges = -1  # raw-edge count the CSR covers; -1 = never built
        #: follower-side overlays for ``follow``/``unfollow`` after (or
        #: independent of) bulk wiring: per-account sources added on top
        #: of the CSR, and CSR sources tombstoned by unfollow. Invariants
        #: kept by the mutators: extra is disjoint from the CSR slice,
        #: removed is a subset of it.
        self._in_extra: dict[AccountId, set[AccountId]] = {}
        self._in_removed: dict[AccountId, set[AccountId]] = {}
        #: edges ever removed into each account (``removals_into``)
        self._removals: dict[AccountId, int] = {}

    # -- out-side plumbing ---------------------------------------------

    def _out_row(self, account: AccountId) -> dict[AccountId, None]:
        out = self._out
        if account >= len(out):
            out.extend([None] * (account + 1 - len(out)))
        row = out[account]
        if row is None:
            row = out[account] = {}
        return row

    # -- in-side plumbing ----------------------------------------------

    def _refresh_csr(self) -> None:
        """Re-derive the follower-side CSR if the raw columns have grown.

        One lexsort over the whole edge list; in production the raw
        columns stop growing once world wiring ends, so this runs once.
        Cached follower views may predate the new edges, so they are all
        dropped here.
        """
        dsts = self._bulk_dst
        if self._csr_edges == len(dsts):
            return
        self._in_views.clear()
        if not dsts:
            self._csr_indptr = np.zeros(1, dtype=np.int64)
            self._csr_srcs = np.empty(0, dtype=np.int64)
            self._csr_edges = 0
            return
        dst_arr = np.frombuffer(dsts, dtype=np.int64)
        src_arr = np.frombuffer(self._bulk_src, dtype=np.int64)
        order = np.lexsort((src_arr, dst_arr))
        self._csr_srcs = src_arr[order]
        counts = np.bincount(dst_arr, minlength=int(dst_arr.max()) + 1)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._csr_indptr = indptr
        self._csr_edges = len(dsts)

    def _csr_slice(self, account: AccountId) -> np.ndarray:
        """``account``'s bulk-wired followers (sorted source ids)."""
        indptr = self._csr_indptr
        if account + 1 >= len(indptr):
            return self._csr_srcs[:0]
        return self._csr_srcs[indptr[account] : indptr[account + 1]]

    def _in_row_ids(self, account: AccountId) -> list[AccountId]:
        """``account``'s followers as a sorted id list (CSR + overlays)."""
        base = self._csr_slice(account)
        extra = self._in_extra.get(account)
        removed = self._in_removed.get(account)
        if not extra and not removed:
            return base.tolist()
        ids = set(base.tolist())
        if removed:
            ids -= removed
        if extra:
            ids |= extra
        return sorted(ids)

    # -- mutation ------------------------------------------------------

    def follow(self, src: AccountId, dst: AccountId) -> None:
        """Add edge src -> dst. Self-follows and duplicates are invalid."""
        if src == dst:
            raise InvalidActionError("accounts cannot follow themselves")
        out = self._out_row(src)
        if dst in out:
            raise InvalidActionError(f"{src} already follows {dst}")
        out[dst] = None
        removed = self._in_removed.get(dst)
        if removed is not None and src in removed:
            removed.remove(src)  # re-follow of a tombstoned CSR edge
        else:
            extra = self._in_extra.get(dst)
            if extra is None:
                extra = self._in_extra[dst] = set()
            extra.add(src)
        self._out_views.pop(src, None)
        self._in_views.pop(dst, None)
        self._edge_count += 1
        self._obs_follows.inc()

    def unfollow(self, src: AccountId, dst: AccountId) -> None:
        """Remove edge src -> dst; removing a missing edge is invalid."""
        out = self._out[src] if src < len(self._out) else None
        if out is None or dst not in out:
            raise InvalidActionError(f"{src} does not follow {dst}")
        del out[dst]
        extra = self._in_extra.get(dst)
        if extra is not None and src in extra:
            extra.remove(src)
        else:
            # the edge lives in the raw bulk columns: tombstone it
            self._in_removed.setdefault(dst, set()).add(src)
        removals = self._removals
        removals[dst] = removals.get(dst, 0) + 1
        self._out_views.pop(src, None)
        self._in_views.pop(dst, None)
        self._edge_count -= 1
        self._obs_unfollows.inc()

    def bulk_follow_new(
        self, src: AccountId, candidates: Iterable[AccountId], limit: int
    ) -> int:
        """Add up to ``limit`` edges src -> candidate, skipping self-picks
        and already-present edges; returns how many were added.

        Candidate order is respected, so the result is identical to
        calling :meth:`follow` per surviving candidate — the world-build
        hot loop without per-edge call overhead: one ``dict.fromkeys``
        builds (or extends) the out-row, and the follower side is two
        flat array extends.
        """
        if limit <= 0:
            return 0
        # first-occurrence-ordered dedup at C speed, then the same
        # self-pick/existing-edge skips and limit cut as the per-edge loop
        fresh = dict.fromkeys(candidates)
        fresh.pop(src, None)
        row = self._out[src] if src < len(self._out) else None
        if row:
            new = [dst for dst in fresh if dst not in row]
            del new[limit:]
            if not new:
                return 0
            row.update(dict.fromkeys(new))
        else:
            if len(fresh) > limit:
                for dst in list(fresh)[limit:]:
                    del fresh[dst]
            if not fresh:
                return 0
            new = list(fresh)
            if src >= len(self._out):
                self._out.extend([None] * (src + 1 - len(self._out)))
            self._out[src] = fresh
        self._out_views.pop(src, None)
        # follower-side update is two array extends; the CSR index over
        # them refreshes on the next follower-side read. A pair already
        # in the raw columns but tombstoned by an earlier unfollow is
        # resurrected by clearing its tombstone instead — appending it
        # again would leave a duplicate raw pair that the tombstone
        # cancels, losing the live edge from follower reads.
        if self._in_removed:
            appended = []
            for dst in new:
                tombstones = self._in_removed.get(dst)
                if tombstones is not None and src in tombstones:
                    tombstones.remove(src)
                    self._in_views.pop(dst, None)
                else:
                    appended.append(dst)
        else:
            appended = new
        self._bulk_dst.extend(appended)
        self._bulk_src.extend([src] * len(appended))
        self._edge_count += len(new)
        self._obs_bulk.inc(len(new))
        return len(new)

    # -- queries -------------------------------------------------------

    def is_following(self, src: AccountId, dst: AccountId) -> bool:
        try:
            row = self._out[src]
        except IndexError:
            return False
        return row is not None and dst in row

    def out_rows(self) -> list:
        """Read-only peek at the raw out-edge rows, indexed by account id.

        ``out_rows()[src]`` is the dict whose keys ``src`` follows (or
        ``None``/out-of-range for accounts with no out-edges), so
        ``dst in row`` answers :meth:`is_following` without the method
        call — the AAS follow-scan probes this ~10^6 times per run. The
        list is the live storage (mutated in place, identity stable
        across follows); callers must never write through it.
        """
        return self._out

    def removals_into(self, account: AccountId) -> int:
        """How many edges into ``account`` were ever removed.

        Every removal goes through :meth:`unfollow` (``drop_account``
        included), so while this count stands still the followers of
        ``account`` only grow. The collusion engine stamps its carried
        follow counts with it.
        """
        return self._removals.get(account, 0)

    def following(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts that ``account`` follows (an immutable snapshot)."""
        row = self._out[account] if account < len(self._out) else None
        return frozenset(row) if row is not None else frozenset()

    def followers(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts following ``account`` (an immutable snapshot)."""
        self._refresh_csr()
        return frozenset(self._in_row_ids(account))

    def following_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted, non-copying view of who ``account`` follows.

        Valid only until the next graph mutation; do not mutate.
        """
        view = self._out_views.get(account)
        if view is None:
            row = self._out[account] if account < len(self._out) else None
            if not row:
                return _EMPTY_VIEW
            view = self._out_views[account] = array(_ID_TYPECODE, sorted(row))
        return view

    def followers_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted, non-copying view of ``account``'s followers."""
        self._refresh_csr()
        view = self._in_views.get(account)
        if view is None:
            ids = self._in_row_ids(account)
            if not ids:
                return _EMPTY_VIEW
            view = self._in_views[account] = array(_ID_TYPECODE, ids)
        return view

    def out_degree(self, account: AccountId) -> int:
        row = self._out[account] if account < len(self._out) else None
        return len(row) if row is not None else 0

    def in_degree(self, account: AccountId) -> int:
        self._refresh_csr()
        indptr = self._csr_indptr
        if account + 1 < len(indptr):
            count = int(indptr[account + 1] - indptr[account])
        else:
            count = 0
        extra = self._in_extra.get(account)
        if extra:
            count += len(extra)
        removed = self._in_removed.get(account)
        if removed:
            count -= len(removed)
        return count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def drop_account(self, account: AccountId) -> int:
        """Remove every edge incident to ``account``; returns edges dropped.

        Used by account deletion: "when deleting a honeypot account, all
        actions to or from the account are eventually removed".
        """
        removed = 0
        for dst in list(self.following_view(account)):
            self.unfollow(account, dst)
            removed += 1
        for src in list(self.followers_view(account)):
            self.unfollow(src, account)
            removed += 1
        return removed

    def __getstate__(self) -> dict:
        # view caches and the CSR are derived state; rebuilding them on
        # demand after a restore keeps the pickle small and consistent
        state = dict(self.__dict__)
        state["_out_views"] = {}
        state["_in_views"] = {}
        state["_csr_indptr"] = None
        state["_csr_srcs"] = None
        state["_csr_edges"] = -1
        return state

    def __setstate__(self, state: dict) -> None:
        # the explicit twin of __getstate__ (tests/test_fleet_pickle_surface.py
        # checks that every restored class pairs the two): restore the raw
        # columns as-is; views and the CSR rebuild lazily on first read.
        # Graphs pickled before the edge-op counters existed resurface
        # un-instrumented rather than failing to unpickle.
        self.__dict__.update(state)
        if "_obs_follows" not in state:
            self._obs_follows = NULL_OBS.counter("platform.graph.edge_ops", op="follow")
            self._obs_unfollows = NULL_OBS.counter("platform.graph.edge_ops", op="unfollow")
            self._obs_bulk = NULL_OBS.counter("platform.graph.edge_ops", op="bulk")

