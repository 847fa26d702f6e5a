"""Versioned query-result cache with semantic reuse.

Heavy traffic is skewed traffic (ROADMAP item 4): the same top-k and
skyline queries recur, yet every execution recomputes from scratch.  The
:class:`CacheDirectory` closes that gap with two reuse tiers, both of
which preserve the repo's bit-identity contract — a warm answer is the
answer the cold run would have produced, byte for byte.

**Exact reuse.**  A completed query is remembered under the key
``(handler, restriction)`` — both compare by value: a handler's
:attr:`~repro.core.handler.QueryHandler.key` holds the query's
parameters, and regions are frozen dataclasses — together with the
frozen set of ``(peer_id, store version)`` pairs it actually touched
(the query context's ``processed`` ledger joined with the live store
versions — sound because the simulation is single-threaded and queries
never mutate stores).  An entry is served only while *every* touched
store still sits at its recorded version.  Invalidation is push-style
and exact: the directory subscribes to every store's version bumps
(:meth:`~repro.common.store.LocalStore.subscribe`), so an insert, bulk
load, zone split (``extract``) or merge (``take_all``) synchronously
drops precisely the entries that touched the mutated store — and no
others.  Overlay membership changes (MIDAS splits/merges, ring joins)
are caught by comparing the overlay's ``epoch`` (every overlay exposes
one) on every access and reconciling the peer registry; a crash
promoting a replica is reported through :meth:`invalidate_peer` (the
scheduler wires it to the failure detector's ``on_dead``).  A stale
answer is therefore structurally impossible: serving requires every
touched ``(peer, version)`` pair to be live and current.

**Semantic reuse.**  A fresh entry whose scope *covers* the new query
can help even when the keys differ:

* a cached top-k for the same scoring function over a superset region
  seeds the new query's :class:`~repro.queries.topk.TopKState` *floor*
  with the k-th best cached score among tuples inside the new region —
  at least k true candidates reach that score, so the seeded threshold
  ``tau`` never exceeds the true k-th best and pruning stays sound
  (links are cut before the first hop, the answer is unchanged; floors
  merge by max, so re-harvesting a seeded tuple at its owner can never
  double-count it);
* a cached top-k' for the *same* region with ``k' >= k`` yields the
  top-k directly (a prefix of the deterministically tie-broken list);
* a cached skyline for a superset region/constraint seeds the partial
  skyline with its members inside the new scope — each is non-dominated
  among *more* competitors, hence a true member of the new skyline, and
  an antichain never prunes the region of another skyline member;
* a cached range scan over a superset box/region filters down to the
  exact new answer without touching the network.

Soundness sketches live in ``docs/CACHING.md``; the property tests in
``tests/net/test_resultcache.py`` pin warm == cold across the full
overlay × handler × engine matrix.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from ..common.geometry import Rect
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import ArcRegion, RectRegion, Region
from ..obs.trace import TraceSink, state_size
from ..queries.rangeq import RangeHandler
from ..queries.skyline import SkylineHandler
from ..queries.topk import TopKHandler, TopKState
from .context import QueryResult

__all__ = ["CacheDirectory", "CacheEntry", "CacheLookup"]

#: Bound on retained entries; far above any benchmark's working set,
#: small enough that a directory never dominates memory.
CAPACITY = 256

#: An entry's key: the handler and the restriction it ran over.
_Key = tuple[QueryHandler, Region]


def _region_covers(outer: Region, inner: Region) -> bool:
    """True when ``outer`` provably contains ``inner`` (exact shapes only)."""
    if isinstance(outer, RectRegion) and isinstance(inner, RectRegion):
        return outer.rect.contains_rect(inner.rect)
    if isinstance(outer, ArcRegion) and isinstance(inner, ArcRegion):
        return all(any(lo >= olo and hi <= ohi for olo, ohi in outer.pieces)
                   for lo, hi in inner.pieces)
    return False


def _constraint_covers(outer: Rect | None, inner: Rect | None) -> bool:
    """Constraint-box containment; ``None`` is the unconstrained universe."""
    if outer is None:
        return True
    if inner is None:
        return False
    return outer.contains_rect(inner)


@dataclass(frozen=True, eq=False)
class CacheEntry:
    """One remembered answer plus the exact evidence it rests on.

    Entries compare and hash by identity: the bookkeeping indexes below
    touch one per touched peer, and a key's value hash runs Python code.
    """

    key: _Key
    handler: QueryHandler
    region: Region
    answer: Any
    #: Sorted ``(peer_id, store_version)`` pairs the producing run read.
    touched: tuple[tuple[Hashable, int], ...]
    #: Total messages of the producing run — what an exact hit saves.
    cost: int


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one :meth:`CacheDirectory.lookup`.

    ``kind`` is ``"exact"`` (serve ``answer`` without running),
    ``"seed"`` (run with ``state`` as the initial global state) or
    ``"miss"``.  Exact hits carry the producing run's message cost in
    ``saved`` for the traffic-reduction accounting.
    """

    kind: str
    answer: Any = None
    state: Any = None
    saved: int = 0

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


_MISS = CacheLookup("miss")


def _unsubscribe(stores: dict[Hashable, LocalStore],
                 listeners: dict[Hashable, Callable[[], None]]) -> None:
    """Detach a collected directory's listeners from its stores."""
    for peer_id, listener in listeners.items():
        stores[peer_id].unsubscribe(listener)


class CacheDirectory:
    """Query-result cache over one overlay, with exact invalidation.

    The directory registers every peer's store at construction and
    subscribes to its version bumps; :meth:`lookup` / :meth:`store` are
    the whole client API (``tests/test_source_invariants.py`` checks that
    simulation code caches query answers through this class and nowhere
    else), and :meth:`consult` / :meth:`trace_run` are the traced lookup
    both query drivers start with.  A query is cacheable when its
    handler has a :attr:`~repro.core.handler.QueryHandler.key` and its
    restriction an exact cover (frustums have none).
    """

    def __init__(self, overlay: Any) -> None:
        self._overlay = overlay
        self._entries: dict[_Key, CacheEntry] = {}
        #: The entries resting on each peer, in insertion order (a dict
        #: used as an ordered set).
        self._by_peer: dict[Hashable, dict[CacheEntry, None]] = {}
        self._stores: dict[Hashable, LocalStore] = {}
        self._listeners: dict[Hashable, Callable[[], None]] = {}
        self._epoch = overlay.epoch
        #: Every event that can drop an entry (a store moved, a peer left
        #: or was declared dead) counts here; ``_validated`` remembers the
        #: count at which an entry's evidence was last checked in full.
        self._events = 0
        self._validated: dict[CacheEntry, int] = {}
        weakref.finalize(self, _unsubscribe, self._stores, self._listeners)
        for peer in overlay.peers():
            self._register(peer.peer_id, peer.store)
        self.hits = 0
        self.semantic_hits = 0
        self.misses = 0
        self.invalidations = 0
        self.messages_saved = 0

    # -- membership bookkeeping -------------------------------------------

    def _register(self, peer_id: Hashable, store: LocalStore) -> None:
        self._stores[peer_id] = store
        # Stores outlive directories, so the listener holds this one
        # weakly: a directory nobody uses any more is collected with its
        # entries instead of living as long as the network.
        directory = weakref.ref(self)

        def listener() -> None:
            live = directory()
            if live is not None:
                live._drop_peer(peer_id)

        self._listeners[peer_id] = store.subscribe(listener)

    def _detach(self, peer_id: Hashable) -> None:
        store = self._stores.pop(peer_id, None)
        listener = self._listeners.pop(peer_id, None)
        if store is not None and listener is not None:
            store.unsubscribe(listener)
        self._drop_peer(peer_id)

    def sync(self) -> None:
        """Reconcile the peer registry after an overlay epoch change.

        Splits and merges already invalidate through the store listeners
        (``extract`` / ``take_all`` / ``bulk_load`` bump versions); the
        epoch scan additionally handles membership itself — departed
        peers lose their entries, joined peers get subscribed — and
        re-registration when a peer id is reused with a fresh store.
        """
        epoch = self._overlay.epoch
        if epoch == self._epoch:
            return
        self._epoch = epoch
        current = {peer.peer_id: peer.store
                   for peer in self._overlay.peers()}
        for peer_id in list(self._stores):
            if current.get(peer_id) is not self._stores[peer_id]:
                self._detach(peer_id)
        for peer_id, store in current.items():
            if peer_id not in self._stores:
                self._register(peer_id, store)

    def invalidate_peer(self, peer_id: Hashable) -> None:
        """Drop every entry that touched ``peer_id``.

        The crash hook: a failure detector declaring a peer DEAD (and a
        replica being promoted in its place) calls this, so answers
        partly computed from the dead peer's store are never replayed.
        """
        self._drop_peer(peer_id)

    def watch_replicas(self, replicas: Any) -> None:
        """Subscribe :meth:`invalidate_peer` to a ``ReplicaDirectory``.

        After this, every :meth:`~repro.overlays.replication.ReplicaDirectory.repair`
        (a failure detector declaring an owner dead and pinning a
        takeover holder) automatically drops the entries whose evidence
        included the dead owner.  :class:`~repro.net.scheduler.QueryEngine`
        wires this when given both a cache and a replica directory.
        """
        replicas.subscribe_promotions(self.invalidate_peer)

    def _drop_peer(self, peer_id: Hashable) -> None:
        self._events += 1
        for entry in self._by_peer.pop(peer_id, ()):
            self._invalidate(entry.key)

    def _invalidate(self, key: _Key) -> None:
        """Drop an entry whose evidence moved, or the oldest on overflow."""
        if self._remove(key):
            self.invalidations += 1

    def _remove(self, key: _Key) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        del self._validated[entry]
        for peer_id, _ in entry.touched:
            entries = self._by_peer.get(peer_id)
            if entries is not None:
                entries.pop(entry, None)
                if not entries:
                    del self._by_peer[peer_id]
        return True

    def _fresh(self, entry: CacheEntry) -> bool:
        """Lazy double-check that every touched store is live and
        unmoved (push invalidation already guarantees it; this keeps the
        serving decision locally auditable).  Nothing can have moved
        while no store, departure or crash has reported in, so the walk
        runs once per such event, not once per hit."""
        if self._validated[entry] == self._events:
            return True
        for peer_id, version in entry.touched:
            store = self._stores.get(peer_id)
            if store is None or store.version != version:
                return False
        self._validated[entry] = self._events
        return True

    # -- the client API ----------------------------------------------------

    def lookup(self, handler: QueryHandler,
               restriction: Region) -> CacheLookup:
        """The best reuse available for ``(handler, restriction)``."""
        handler.check_restriction(restriction)
        self.sync()
        if handler.key is None or not restriction.exact:
            self.misses += 1
            return _MISS
        entry = self._entries.get((handler, restriction))
        if entry is not None:
            if self._fresh(entry):
                self.hits += 1
                self.messages_saved += entry.cost
                return CacheLookup("exact", answer=entry.answer,
                                   saved=entry.cost)
            self._invalidate(entry.key)
        found = self._semantic(handler, restriction)
        if found is None:
            self.misses += 1
            return _MISS
        self.semantic_hits += 1
        if found.is_exact:
            self.messages_saved += found.saved
        return found

    def consult(self, handler: QueryHandler, restriction: Region,
                sink: TraceSink | None, t: int, peer: Hashable,
                attrs: dict[str, Any], closing: dict[str, Any]
                ) -> CacheLookup:
        """:meth:`lookup` as the first step of a query run at ``t`` from
        ``peer``.

        An exact hit settles the query: an enabled ``sink`` records it
        as a whole ``query`` span (``attrs`` plus ``cache="exact"``,
        closed with ``closing``) holding a ``cache-hit`` event.  Any
        other outcome runs the query; :meth:`trace_run` marks its root
        span.
        """
        found = self.lookup(handler, restriction)
        if found.is_exact and sink is not None and sink.enabled:
            span = sink.begin_span("query", peer, t, region=repr(restriction),
                                   **attrs, cache="exact")
            sink.event("cache-hit", t, span=span, saved=found.saved)
            sink.end_span(span, t, **closing)
        return found

    @staticmethod
    def trace_run(sink: TraceSink, span: int, t: int, seed: Any) -> None:
        """Mark the root span of a query that :meth:`consult` did not
        settle: ``cache-seed`` with the size of its ``seed`` state, or
        ``cache-miss`` when it starts cold."""
        if seed is not None:
            sink.event("cache-seed", t, span=span, size=state_size(seed))
        else:
            sink.event("cache-miss", t, span=span)

    def store(self, handler: QueryHandler, restriction: Region,
              result: QueryResult, processed: Iterable[Hashable]) -> bool:
        """Remember a completed query; True when an entry was created.

        Only full-fidelity runs are cacheable: partial answers
        (``completeness < 1``) and runs that read promoted replicas
        (whose stores the directory does not track) are refused, as are
        uncacheable queries (see the class docstring).  A query stored
        again replaces its entry, which moves to the end of the
        insertion order; that is not an invalidation.
        """
        handler.check_restriction(restriction)
        self.sync()
        stats = result.stats
        if stats.completeness < 1.0 or stats.replica_reads > 0:
            return False
        if handler.key is None or not restriction.exact:
            return False
        touched: list[tuple[Hashable, int]] = []
        for peer_id in sorted(processed, key=repr):
            store = self._stores.get(peer_id)
            if store is None:
                return False
            touched.append((peer_id, store.version))
        if not touched:
            # A run that processed no tracked peer carries no evidence.
            return False
        key: _Key = (handler, restriction)
        self._remove(key)
        while len(self._entries) >= CAPACITY:
            self._invalidate(next(iter(self._entries)))
        entry = CacheEntry(key=key, handler=handler, region=restriction,
                           answer=result.answer, touched=tuple(touched),
                           cost=stats.total_messages)
        self._entries[key] = entry
        self._validated[entry] = self._events
        for peer_id, _ in entry.touched:
            self._by_peer.setdefault(peer_id, {})[entry] = None
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        """The deterministic counter block the benchmark gate records."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "semantic_hits": self.semantic_hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "messages_saved": self.messages_saved,
        }

    # -- semantic reuse ----------------------------------------------------

    def _semantic(self, handler: QueryHandler,
                  restriction: Region) -> CacheLookup | None:
        """First (insertion-order, hence deterministic) covering entry."""
        for entry in list(self._entries.values()):
            match = self._match(entry, handler, restriction)
            if match is None:
                continue
            if not self._fresh(entry):
                self._invalidate(entry.key)
                continue
            return match
        return None

    def _match(self, entry: CacheEntry, handler: QueryHandler,
               restriction: Region) -> CacheLookup | None:
        if isinstance(handler, TopKHandler) \
                and isinstance(entry.handler, TopKHandler):
            return self._match_topk(entry, entry.handler, handler,
                                    restriction)
        if isinstance(handler, SkylineHandler) \
                and isinstance(entry.handler, SkylineHandler):
            return self._match_skyline(entry, entry.handler, handler,
                                       restriction)
        if isinstance(handler, RangeHandler) \
                and isinstance(entry.handler, RangeHandler):
            return self._match_range(entry, entry.handler, handler,
                                     restriction)
        return None

    def _match_topk(self, entry: CacheEntry, cached: TopKHandler,
                    handler: TopKHandler,
                    restriction: Region) -> CacheLookup | None:
        if handler.fn != cached.fn:
            return None
        if entry.region == restriction and cached.k >= handler.k:
            # The top-k is a prefix of the deterministically tie-broken
            # top-k' of the same scope.
            return CacheLookup("exact", answer=entry.answer[: handler.k],
                               saved=entry.cost)
        if not _region_covers(entry.region, restriction):
            return None
        candidates = [score for score, point in entry.answer
                      if restriction.contains(point)]
        if len(candidates) < handler.k:
            return None
        # Seed the *floor*, never the score multiset: at least k true
        # candidates of the new scope score >= candidates[k-1], so it is
        # a sound lower bound on the new k-th best — and floors merge by
        # max (idempotent), so when a seeded tuple's owner is visited
        # and re-harvests the same score, nothing is double-counted.
        # (Seeding the scores themselves would count such a tuple twice
        # in the merged multiset and push tau past the true k-th best,
        # silently dropping boundary tuples from the warm answer.)
        return CacheLookup("seed", state=TopKState((), candidates[handler.k - 1]))

    def _match_skyline(self, entry: CacheEntry, cached: SkylineHandler,
                       handler: SkylineHandler,
                       restriction: Region) -> CacheLookup | None:
        if cached.dims != handler.dims:
            return None
        if not _constraint_covers(cached.constraint, handler.constraint):
            return None
        if not _region_covers(entry.region, restriction):
            return None
        box = handler.constraint
        seeds = tuple(sorted(
            point for point in entry.answer
            if restriction.contains(point)
            and (box is None or box.contains(point))))
        if not seeds:
            return None
        # Subset scope means fewer competitors: each seed stays
        # non-dominated, i.e. is a true member of the new skyline, so
        # the seeded antichain never prunes another member's region.
        return CacheLookup("seed", state=seeds)

    def _match_range(self, entry: CacheEntry, cached: RangeHandler,
                     handler: RangeHandler,
                     restriction: Region) -> CacheLookup | None:
        if not cached.box.contains_rect(handler.box):
            return None
        if not _region_covers(entry.region, restriction):
            return None
        # The cached scan already holds every stored tuple of the
        # superset scope; the subset answer is a pure filter.
        answer = sorted(point for point in entry.answer
                        if handler.box.contains(point)
                        and restriction.contains(point))
        return CacheLookup("exact", answer=answer, saved=entry.cost)
