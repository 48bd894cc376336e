"""The follower graph.

A directed graph over accounts: an edge A -> B means "A follows B".
Out-degree is "number followed" (Figure 3's metric); in-degree is
"number of followers" (Figure 4's metric).

:class:`FollowerGraph` keeps both sides of every edge in one row
layout. Its equivalence with the brute-force ``defaultdict(set)``
reference graph in ``tests/oracles/graph.py`` is property-tested in
``tests/test_platform_graph_columnar.py``.

* **Rows** are insertion-ordered dicts used as sets (``account ->
  None``), indexed directly by account id in a dense list (account ids
  are minted from a counter starting at 1, so the id *is* the row
  index). ``_out[src]`` holds who ``src``
  follows and ``_in[dst]`` mirrors it with who follows ``dst``; every
  mutator writes both rows. ``is_following`` — the hottest graph call —
  is one list index and one dict probe, ``in_degree`` is one ``len``,
  and the world wirer's ``bulk_follow_new`` builds a whole out-row with
  a single ``dict.fromkeys`` call.

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
* ``followed_by_all`` — whether a set of accounts all follow one
  account: one superset test of its follower row. The collusion engine
  asks it of a follow recipient's source pool (its follow saturation
  test).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs import NULL_OBS, Observability
from repro.platform.errors import InvalidActionError
from repro.platform.models import AccountId

#: typecode of adjacency arrays: signed 64-bit, matching AccountId's range
_ID_TYPECODE = "q"

_EMPTY_VIEW: Sequence[AccountId] = array(_ID_TYPECODE)

#: a dense list of rows indexed by account id; ``None`` = no row yet
_Rows = List[Optional[Dict[AccountId, None]]]


def _row(rows: _Rows, account: AccountId) -> dict[AccountId, None]:
    """``account``'s row in ``rows``, created (and the list grown) on demand."""
    if account >= len(rows):
        rows.extend([None] * (account + 1 - len(rows)))
    row = rows[account]
    if row is None:
        row = rows[account] = {}
    return row


def _sorted_view(
    rows: _Rows, views: dict[AccountId, array], account: AccountId
) -> Sequence[AccountId]:
    """The cached sorted ``array('q')`` of ``account``'s row in ``rows``."""
    view = views.get(account)
    if view is None:
        row = rows[account] if account < len(rows) else None
        if not row:
            return _EMPTY_VIEW
        view = views[account] = array(_ID_TYPECODE, sorted(row))
    return view


class FollowerGraph:
    """Directed follow edges on dense-indexed following/follower rows.

    Edge mutations count into ``platform.graph.edge_ops{op=...}`` — the
    "graph" work units that perfbench reports as
    ``obs.cost_units.graph`` (classified by :mod:`repro.obs.prof`).
    Write-only telemetry: obs-off runs are bit-identical.
    """

    def __init__(self, obs: Observability | None = None):
        _obs = obs if obs is not None else NULL_OBS
        self._obs_follows = _obs.counter("platform.graph.edge_ops", op="follow")
        self._obs_unfollows = _obs.counter("platform.graph.edge_ops", op="unfollow")
        self._obs_bulk = _obs.counter("platform.graph.edge_ops", op="bulk")
        #: rows indexed directly by account id (dense: ids are
        #: counter-minted); each row is an insertion-ordered dict used as
        #: a set: ``_out[src]`` of followed accounts, ``_in[dst]`` of
        #: followers
        self._out: _Rows = []
        self._in: _Rows = []
        #: cached sorted array('q') snapshots of rows, dropped on
        #: mutation; only accounts whose views were read carry an entry
        self._out_views: dict[AccountId, array] = {}
        self._in_views: dict[AccountId, array] = {}
        self._edge_count = 0

    # -- mutation ------------------------------------------------------

    def follow(self, src: AccountId, dst: AccountId) -> None:
        """Add edge src -> dst. Self-follows and duplicates are invalid."""
        if src == dst:
            raise InvalidActionError("accounts cannot follow themselves")
        out = _row(self._out, src)
        if dst in out:
            raise InvalidActionError(f"{src} already follows {dst}")
        out[dst] = None
        _row(self._in, dst)[src] = None
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
        del self._in[dst][src]
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
        builds (or extends) the out-row, and each new edge is one store
        into its follower row.
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
        rows_in = self._in
        top = max(new)
        if top >= len(rows_in):
            rows_in.extend([None] * (top + 1 - len(rows_in)))
        for dst in new:
            followers = rows_in[dst]
            if followers is None:
                rows_in[dst] = {src: None}
            else:
                followers[src] = None
        in_views = self._in_views
        if in_views:
            for dst in new:
                in_views.pop(dst, None)
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
        call — the AAS follow loop probes this once per attempt. The
        list is the live storage (mutated in place, identity stable
        across follows); callers must never write through it.
        """
        return self._out

    def followed_by_all(self, account: AccountId, sources: set[AccountId]) -> bool:
        """Whether every account in ``sources`` follows ``account``.

        One C-level superset test of ``account``'s follower row, the
        twin of ``MediaStore.liked_by_all``; reads without creating a
        row, so the probe leaves the graph as it found it.
        """
        row = self._in[account] if account < len(self._in) else None
        if row is None:
            return not sources
        return row.keys() >= sources

    def following(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts that ``account`` follows (an immutable snapshot)."""
        row = self._out[account] if account < len(self._out) else None
        return frozenset(row) if row is not None else frozenset()

    def followers(self, account: AccountId) -> frozenset[AccountId]:
        """Accounts following ``account`` (an immutable snapshot)."""
        row = self._in[account] if account < len(self._in) else None
        return frozenset(row) if row is not None else frozenset()

    def following_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted, non-copying view of who ``account`` follows.

        Valid only until the next graph mutation; do not mutate.
        """
        return _sorted_view(self._out, self._out_views, account)

    def followers_view(self, account: AccountId) -> Sequence[AccountId]:
        """Sorted, non-copying view of ``account``'s followers."""
        return _sorted_view(self._in, self._in_views, account)

    def out_degree(self, account: AccountId) -> int:
        row = self._out[account] if account < len(self._out) else None
        return len(row) if row is not None else 0

    def in_degree(self, account: AccountId) -> int:
        row = self._in[account] if account < len(self._in) else None
        return len(row) if row is not None else 0

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
        # view caches are derived state; rebuilding them on demand after
        # a restore keeps the pickle small and consistent
        state = dict(self.__dict__)
        state["_out_views"] = {}
        state["_in_views"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        # the explicit twin of __getstate__ (tests/test_fleet_pickle_surface.py
        # checks that every restored class pairs the two): restore the rows
        # as-is; views rebuild lazily on first read
        self.__dict__.update(state)
