"""Per-peer tuple storage.

Each peer of a DHT stores the tuples whose keys fall inside its zone.  The
store keeps them in a single ``(m, d)`` NumPy array so local scans (top-k,
skyline seeds, best-phi) are vectorized, while everything that crosses the
simulated network remains plain tuples (see :mod:`repro.common.geometry`).

For fault tolerance the store is also the unit of *replication*: a
:class:`Replica` is a version-stamped mirror of another peer's store,
installed on structurally chosen neighbors by
:class:`~repro.overlays.replication.ReplicaDirectory`.  The mirror rides
the same consistency machinery as the computation cache — every mutation
bumps :attr:`LocalStore.version`, and :meth:`Replica.refresh` re-snapshots
exactly when the owner's version moved, so a replica is never silently
stale and never copied needlessly (split/merge handoffs during churn bump
the version too, invalidating the mirrors of both stores involved).

Beyond raw storage the store is also the *per-peer computation cache*: a
rank query makes a peer reduce its local array more than once (the local
state and the local answer both derive from the same reduction), and
benchmark sweeps issue many queries against an unchanging network.  Both
reuse patterns are served by :meth:`LocalStore.cached`, a version-keyed
memo table: every mutation bumps :attr:`LocalStore.version` and drops all
cached entries, so a cached value is always consistent with the live
array.  The built-in :meth:`top_scoring` / :meth:`top_scores` /
:meth:`scoring_at_least` scans share one cached *score index* (scores
plus descending sort order) per scoring function; scoring functions
compare by value, so equal weights built twice share it.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isfinite
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .geometry import Point, Rect, as_point, contains_batch
from .scoring import ScoringFunction

__all__ = ["LocalStore", "Replica"]

_GROWTH = 1.6

#: Entries kept per store; one more evicts the least recently used.  The
#: cap bounds memory on static networks serving many distinct queries
#: (each scoring function / constraint is its own key); it is far above
#: what a single query needs, so the per-query double-work elimination is
#: never affected.
_CACHE_CAP = 64

_T = TypeVar("_T")


class LocalStore:
    """A grow-only columnar buffer of d-dimensional tuples.

    The store over-allocates (amortized O(1) inserts) and exposes the live
    prefix through :attr:`array`.  Removal happens only wholesale, when a
    zone splits or merges (:meth:`extract`, :meth:`take_all`).
    """

    #: Class-wide switch for the computation cache; benchmark harnesses
    #: flip it off to measure the uncached (pre-cache) behaviour.
    cache_enabled: bool = True

    #: True for arena-backed read-only views (:meth:`view_of`): the buffer
    #: is a slice of a shared substrate array, so mutation is forbidden.
    _frozen: bool = False

    def __init__(self, dims: int, points: Iterable[Sequence[float]] = ()) -> None:
        if dims <= 0:
            raise ValueError("dims must be positive")
        self.dims = dims
        self._buf = np.empty((8, dims), dtype=float)
        self._size = 0
        self._version = 0
        self._cache: dict[Hashable, Any] = {}
        self._listeners: list[Callable[[], None]] = []
        self.cache_hits = 0
        self.cache_misses = 0
        for point in points:
            self.insert(point)

    @classmethod
    def view_of(cls, array: np.ndarray) -> "LocalStore":
        """A zero-copy read-only store over an ``(m, d)`` array slice.

        The arena substrate keeps every peer's tuples as one row range of
        a shared array; this constructor wraps such a range in the full
        store API (kernels, score index, computation cache) without
        copying.  The view is frozen: mutators raise, and the underlying
        rows are marked non-writeable.
        """
        array = np.asarray(array, dtype=float)
        if array.ndim != 2 or array.shape[1] == 0:
            raise ValueError(f"expected a (m, d) array, got shape {array.shape}")
        store = cls.__new__(cls)
        store.dims = array.shape[1]
        # A private view: freezing its writeable flag never mutates the
        # caller's array object.
        store._buf = array.view()
        store._buf.flags.writeable = False
        store._size = len(array)
        store._version = 0
        store._cache = {}
        store._listeners = []
        store.cache_hits = 0
        store.cache_misses = 0
        store._frozen = True
        return store

    # -- capacity -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the live tuples, shape ``(len(self), dims)``."""
        view = self._buf[: self._size]
        view.flags.writeable = False
        return view

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= len(self._buf):
            return
        capacity = max(needed, int(len(self._buf) * _GROWTH) + 1)
        buf = np.empty((capacity, self.dims), dtype=float)
        buf[: self._size] = self._buf[: self._size]
        self._buf = buf

    # -- computation cache --------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter.

        Bumped by every mutation (:meth:`insert`, :meth:`bulk_load`,
        :meth:`extract`, :meth:`take_all`); cached results are valid for
        exactly one version.
        """
        return self._version

    def _invalidate(self) -> None:
        self._version += 1
        if self._cache:
            self._cache.clear()
        for listener in self._listeners:
            listener()

    def subscribe(self, listener: Callable[[], None]) -> Callable[[], None]:
        """Register ``listener`` to fire after every version bump.

        The callback runs synchronously inside the mutating call, after
        the version moved and the computation cache was dropped — the
        hook :class:`~repro.net.resultcache.CacheDirectory` uses for
        push-style exact invalidation of cached query answers.  Returns
        the listener so subscribing can be inlined; duplicate
        subscriptions fire once per subscription.
        """
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Callable[[], None]) -> None:
        """Remove one earlier subscription of ``listener`` (no-op when
        absent), so directories tracking departed peers can detach."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def cached(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """Memoize ``compute()`` against the current store version.

        ``key`` identifies the computation (e.g. a query constraint or a
        scoring function); the entry is dropped as soon as the store
        mutates, so callers never observe stale results.  Cached values
        are shared — treat them as immutable.
        """
        if not self.cache_enabled:
            return compute()
        try:
            # Popped and re-inserted: dict order is recency order.
            value = self._cache.pop(key)
        except KeyError:
            self.cache_misses += 1
            value = compute()
            self._evict_for_one()
        else:
            self.cache_hits += 1
        self._cache[key] = value
        return value

    def _evict_for_one(self) -> None:
        """Make room for one entry: drop the least recently used."""
        if len(self._cache) >= _CACHE_CAP:
            del self._cache[next(iter(self._cache))]

    def prime(self, key: Hashable, value: Any) -> None:
        """Seed the computation cache with an externally computed value.

        The batched wavefront kernels (:mod:`repro.overlays.arena`)
        evaluate one grouped reduction for every store touched in an
        expansion wave, then *prime* each store's cache with its slice of
        the result; the handlers subsequently call :meth:`cached` (via
        ``top_scoring`` / the local-skyline memo) and hit the primed
        entry instead of recomputing per peer.  The caller guarantees the
        value equals what ``compute()`` would have produced for the
        current version — bit for bit, since primed results flow into
        answers.  No-op when caching is disabled or the key is already
        present; never bumps hit/miss counters (those track the scalar
        protocol).
        """
        if not self.cache_enabled or key in self._cache:
            return
        self._evict_for_one()
        self._cache[key] = value

    def _score_index(self, fn: ScoringFunction
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(scores, order, negated)`` for ``fn``, cached per version.

        ``order`` is the stable descending argsort of ``scores`` (ties
        keep insertion order) and ``negated = -scores[order]``, ascending,
        which turns every threshold scan into a binary search over a
        prefix: ``bisect_right`` on the array itself, where ``-0.0`` ties
        ``0.0`` as in ``searchsorted(side="right")``.  (A ``memoryview``
        would leave NumPy's buffer description on every cached array.)
        """
        def compute() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            scores = fn.score_batch(self.array)
            order = np.argsort(-scores, kind="stable")
            return scores, order, -scores[order]

        return self.cached(("score-index", fn), compute)

    # -- mutation -----------------------------------------------------------

    def _writable(self) -> None:
        if self._frozen:
            raise TypeError("arena store views are read-only; mutate the "
                            "substrate by rebuilding the arena")

    def insert(self, point: Sequence[float]) -> None:
        self._writable()
        if len(point) != self.dims:
            raise ValueError(f"expected {self.dims}-d point, got {len(point)}-d")
        if not all(map(isfinite, point)):
            raise ValueError(f"expected finite coordinates, got {tuple(point)}")
        self._reserve(1)
        self._buf[self._size] = point
        self._size += 1
        self._invalidate()

    def bulk_load(self, array: np.ndarray) -> None:
        self._writable()
        array = np.asarray(array, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.dims:
            raise ValueError(f"expected (m, {self.dims}) array, got {array.shape}")
        self._reserve(len(array))
        self._buf[self._size : self._size + len(array)] = array
        self._size += len(array)
        self._invalidate()

    def extract(self, rect: Rect, dim: int | None = None) -> np.ndarray:
        """Remove and return all tuples inside ``rect`` (half-open).

        Used when a zone splits: the tuples of the new sibling zone move to
        the joining peer.  A zone splits along one dimension and holds
        nothing outside itself, so the split passes that ``dim`` and only
        its column is compared; the caller vouches that every stored
        tuple is inside ``rect`` along the others.
        """
        self._writable()
        live = self._buf[: self._size]
        if dim is None:
            inside = contains_batch(live, rect.lo, rect.hi)
        else:
            column = live[:, dim]
            inside = (column >= rect.lo[dim]) & (column < rect.hi[dim])
        moved = live[inside]
        kept = live[~inside]
        self._buf[: len(kept)] = kept
        self._size = len(kept)
        self._invalidate()
        return moved

    def take_all(self) -> np.ndarray:
        """Remove and return every tuple (zone merge on peer departure)."""
        self._writable()
        out = self._buf[: self._size].copy()
        self._size = 0
        self._invalidate()
        return out

    # -- scans --------------------------------------------------------------

    def iter_points(self) -> Iterator[Point]:
        for row in self.array:
            yield as_point(row)

    def top_scoring(
        self,
        fn: ScoringFunction,
        limit: int,
        *,
        above: float = -np.inf,
    ) -> list[tuple[float, Point]]:
        """Up to ``limit`` best local tuples with score >= ``above``.

        Returns ``(score, tuple)`` pairs in descending score order — the
        local retrieval primitive of Algorithm 4.  Backed by the cached
        score index, so repeated scans under the same scoring function
        (local state *and* local answer of one query, or many queries of a
        sweep) reduce the array exactly once per store version.
        """
        if self._size == 0 or limit <= 0:
            return []
        scores, order, negated = self._score_index(fn)
        # Entries scoring >= above form a prefix of the descending order.
        cut = int(negated.searchsorted(-above, side="right"))
        if cut == 0:
            return []
        best = order[: min(cut, limit)]
        return list(zip(scores[best].tolist(),
                        map(tuple, self._buf[best].tolist())))

    def top_scores(self, fn: ScoringFunction, limit: int, *,
                   above: float = -np.inf) -> tuple[float, ...]:
        """The scores of :meth:`top_scoring`, without its tuples.

        A prefix of the cached index: ``-negated[i]`` is
        ``scores[order[i]]`` bit for bit (a sign flip).
        """
        if self._size == 0 or limit <= 0:
            return ()
        negated = self._score_index(fn)[2]
        cut = bisect_right(negated, -above)
        if cut == 0:
            return ()
        return tuple([-v for v in negated[:min(cut, limit)].tolist()])

    def scoring_at_least(self, fn: ScoringFunction, tau: float) -> np.ndarray:
        """Every local tuple with score >= ``tau`` (Algorithm 6), as an
        ``(m, d)`` row block in store order.  They are a prefix of the
        cached score index; the block is a copy, never a view of the
        buffer a later insert may overwrite."""
        if self._size == 0:
            return self._buf[:0]
        _, order, negated = self._score_index(fn)
        cut = bisect_right(negated, -tau)
        if cut == 0:
            return self._buf[:0]
        return self._buf.take(sorted(order[:cut].tolist()), axis=0)


class Replica:
    """A version-stamped mirror of another peer's :class:`LocalStore`.

    ``owner_id`` names the peer whose tuples are mirrored; ``store`` is a
    private copy (so queries served from the replica get the full store
    API — kernels, score index, computation cache — without touching the
    owner), and ``version`` records the owner-store version the snapshot
    reflects.  :meth:`refresh` models the owner pushing updates to its
    replica holders while alive: it re-snapshots only when the owner's
    version moved, making maintenance free on static networks.
    """

    __slots__ = ("owner_id", "store", "version")

    def __init__(self, owner_id: Hashable, owner_store: LocalStore) -> None:
        self.owner_id = owner_id
        self.store = LocalStore(owner_store.dims)
        self.version: int = -1
        self.refresh(owner_store)

    def refresh(self, owner_store: LocalStore) -> bool:
        """Re-snapshot from the owner if it mutated; True when copied."""
        if owner_store.version == self.version \
                and owner_store.dims == self.store.dims:
            return False
        self.store = LocalStore(owner_store.dims)
        if len(owner_store):
            self.store.bulk_load(owner_store.array)
        self.version = owner_store.version
        return True

    def __repr__(self) -> str:
        return (f"Replica(owner={self.owner_id!r}, tuples={len(self.store)}, "
                f"version={self.version})")
