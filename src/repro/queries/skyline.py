"""Skyline query processing with RIPPLE (Section 5, Algorithms 10-15).

The abstract state is a *partial skyline*: a set of tuples none of which
dominates another, refined as more of the network is seen.  Lower values
are better on every dimension (Section 5.1); flip attributes beforehand
for max-oriented data (:func:`repro.data.nba.to_minimization`).

Pruning (Algorithm 14): a link is irrelevant when some already-known tuple
dominates its entire region.  Prioritization (Algorithm 15): regions
closer to the origin first, because tuples near the origin dominate the
most.

Kernel design (see docs/ALGORITHMS.md, "Kernel complexity & caching"):
the array kernels are sort-first and block-vectorized — candidates are
processed in chunks tested against the surviving skyline in one NumPy
dominance reduction, and survivors land in a preallocated buffer instead
of being re-copied per insertion.  The per-peer local skyline is cached
on the :class:`~repro.common.store.LocalStore` (keyed by constraint,
invalidated by store version), so one query reduces each peer's array at
most once and repeated queries over a static network not at all.

A state is one lexsorted ``(m, d)`` float array from the store memo to
``finalize``; every fold is the cross-dominance pass of
:func:`_merge_antichains`, which hands back its inputs untouched when a
side contributes nothing — the common case at a peer.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterable, Sequence, Union

import numpy as np

from ..common.geometry import Point, Rect, as_point, dominates, mindist
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import Region

__all__ = [
    "skyline_of",
    "skyline_of_array",
    "k_skyband_of_array",
    "merge_skylines",
    "skyline_reference",
    "SkylineHandler",
]

#: Lexsorted rows, none dominating another.
SkylineState = np.ndarray
#: What the handler callbacks take for a state: also a sequence of points
#: (a cache seed, a harness replaying an answer).
_StateLike = Union[np.ndarray, Sequence[Point]]

#: Candidate rows folded into the survivor set per vectorized dominance
#: test.  Large enough to amortize NumPy call overhead, small enough that
#: the (block, survivors, dims) comparison tensor stays cache-friendly.
_BLOCK = 256


def skyline_of(points: Iterable[Point]) -> list[Point]:
    """The maximal (non-dominated) tuples of a small point collection.

    Sorting by coordinate sum first means any dominator of a point
    precedes it, so one pass against the kept list suffices.
    """
    ordered = sorted(set(points), key=lambda p: (sum(p), p))
    kept: list[Point] = []
    for point in ordered:
        if not any(dominates(other, point) for other in kept):
            kept.append(point)
    return kept


def _dominance_order(array: np.ndarray) -> np.ndarray:
    """A permutation placing every dominator before the points it dominates.

    Sorting by the coordinate sum almost ensures that, but floating
    addition can collapse distinct sums (a + tiny == a), so ties break
    lexicographically — a dominator is componentwise <= its victim, so it
    also precedes it lexicographically.
    """
    sums = array.sum(axis=1)
    keys = tuple(array[:, dim] for dim in range(array.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (sums,))


def skyline_of_array(array: np.ndarray) -> np.ndarray:
    """Vectorized skyline of an ``(m, d)`` array (lower is better).

    Sort-first, block-filtered: candidates arrive in dominance order and
    each block is cleared against the surviving skyline in one vectorized
    dominance reduction, with survivors accumulating in a preallocated
    index buffer — O(m) bookkeeping total instead of the O(s^2) copying an
    incrementally re-stacked survivor matrix costs.  Exact duplicates are
    collapsed up front (and re-expanded at the end), which turns the
    dominance test into a single componentwise ``<=`` reduction: among
    distinct rows, ``all(a <= b)`` already implies strict improvement
    somewhere, so the separate ``<`` tensor of the textbook test vanishes.
    """
    array = np.asarray(array, dtype=float)
    if len(array) == 0:
        return array
    data = array[_dominance_order(array)]
    # Collapse exact duplicates (adjacent after sorting): `counts` re-expands
    # surviving rows at the end, preserving the duplicate-keeping semantics.
    distinct = np.empty(len(data), dtype=bool)
    distinct[0] = True
    np.any(data[1:] != data[:-1], axis=1, out=distinct[1:])
    if distinct.all():
        uniq, counts = data, None
    else:
        starts = np.flatnonzero(distinct)
        counts = np.diff(np.append(starts, len(data)))
        uniq = data[starts]
    n = len(uniq)
    kept = np.empty(n, dtype=np.intp)
    count = 0
    live = np.arange(n)
    while len(live):
        # The head of the live queue was not eliminated by any confirmed
        # skyline point, and sorting put every potential dominator first —
        # so after one pairwise pass within the block, its survivors are
        # confirmed skyline members.  (Transitivity makes rows that are
        # themselves dominated valid witnesses, so no iteration is needed;
        # each row trivially satisfies <= with itself, hence `> 1`.)
        index = live[:_BLOCK]
        tail = live[_BLOCK:]
        block = uniq[index]
        if len(block) > 1:
            le = (block[:, None, :] <= block[None, :, :]).all(2)
            alive = le.sum(axis=0) <= 1
            block, index = block[alive], index[alive]
        kept[count : count + len(index)] = index
        count += len(index)
        # Prune the tail against the new skyline points: a dominated row
        # is dropped the first time a dominator confirms, so it is never
        # compared again — the practical win over re-testing every
        # candidate against the full survivor set.
        if len(tail) and len(block):
            rest = uniq[tail]
            dominated = (block[None, :, :] <= rest[:, None, :]).all(2).any(1)
            live = tail[~dominated]
        else:
            live = tail
    kept = kept[:count]
    if counts is None:
        return uniq[kept].copy()
    return np.repeat(uniq[kept], counts[kept], axis=0)


def k_skyband_of_array(array: np.ndarray, k: int, *,
                       maximize: bool = False) -> np.ndarray:
    """The k-skyband: tuples dominated by fewer than ``k`` others.

    The 1-skyband is the skyline.  The *max-oriented* k-skyband (higher
    values dominate) contains the top-k answer of every monotone
    increasing scoring function — the property SPEERTO's precomputation
    rests on (Section 2.1).  Dominance counts are computed block-wise
    (one ``(block, m, d)`` comparison tensor per chunk), keeping the
    all-pairs scan vectorized at bounded memory.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    array = np.asarray(array, dtype=float)
    if len(array) == 0:
        return array
    data = -array if maximize else array
    # Dominance counts only depend on the row's value, so compute them per
    # distinct row, weighting each candidate dominator by its multiplicity:
    # #dominators(u) = sum_{v <= u} count(v) - count(u), the subtraction
    # removing u itself and its exact duplicates (componentwise <= but not
    # strictly better anywhere).
    uniq, inverse, counts = np.unique(data, axis=0, return_inverse=True,
                                      return_counts=True)
    weights = counts.astype(np.int64)
    dominators = np.empty(len(uniq), dtype=np.int64)
    for start in range(0, len(uniq), _BLOCK):
        stop = min(start + _BLOCK, len(uniq))
        block = uniq[start:stop]
        # np.unique sorts rows lexicographically, and a dominator of a
        # distinct row is lexicographically smaller — so only the prefix
        # up to the block's end can contain dominators, halving the
        # all-pairs tensor on average.
        le = (uniq[None, :stop, :] <= block[:, None, :]).all(axis=2)
        dominators[start:stop] = le @ weights[:stop]
    dominators -= weights
    return array[(dominators < k)[inverse]]


def _lexsorted(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order, first column most significant."""
    return rows[np.lexsort(rows.T[::-1])] if len(rows) > 1 else rows


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Lexsorted ``rows`` without repeats (``rows`` itself if it has none)."""
    if len(rows) < 2:
        return rows
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return rows if fresh.all() else rows[fresh]


def _merge_antichains(state: np.ndarray, other: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """One cross-dominance pass between two lexsorted antichains.

    Returns ``(survivors, merged)``: the rows of ``other`` no row of
    ``state`` dominates (a row equal to one of ``state`` survives), and
    the lexsorted skyline of the union without repeats.  ``state`` holds
    distinct rows; ``other`` may repeat one (a store can hold a tuple
    twice).  Because each side is an antichain, dominance only occurs
    across them, so both answers read off the same two comparisons — and
    a side that changes nothing comes back as the object passed in.
    """
    if not len(other):
        return other, state
    if not len(state):
        return other, _distinct(other)
    pair = state[:, None, :]
    le = (pair <= other).all(2)
    ge = (pair >= other).all(2)
    beaten = (le & ~ge).any(0)
    survivors = other[~beaten] if beaten.any() else other
    fresh = ~le.any(0)
    if not fresh.any():
        return survivors, state
    kept = state[~(ge & ~le).any(1)]
    return survivors, _lexsorted(
        np.concatenate((kept, _distinct(other[fresh]))))


def _dominates_corner(state: np.ndarray, corner: Point) -> bool:
    """Whether some row of ``state`` Pareto-dominates ``corner``."""
    le = np.logical_and.reduce(state <= corner, axis=1)
    return np.count_nonzero(le) > 0 and bool((state[le] < corner).any())


def merge_skylines(*collections: Sequence[Point]) -> list[Point]:
    """Skyline of the union of point collections, each an antichain.

    Accepts any number of collections (every caller's inputs are already
    individually dominance-free: local skylines and previously merged
    states) and folds them through :func:`_merge_antichains`, the kernel
    the handler states run on.  Returns the sorted distinct points.
    """
    merged = np.empty((0, 0))
    for collection in collections:
        if len(collection):
            merged = _merge_antichains(merged, _lexsorted(
                np.asarray(collection, dtype=float)))[1]
    return [tuple(row) for row in merged.tolist()]


def skyline_reference(array: np.ndarray,
                      constraint: Rect | None = None) -> list[Point]:
    """Centralized oracle: the (optionally constrained) skyline, sorted.

    The skyline is a set of *values*: duplicate tuples collapse, matching
    the set semantics of the distributed states.
    """
    array = np.asarray(array, dtype=float)
    if constraint is not None and len(array):
        inside = np.all((array >= constraint.lo) & (array < constraint.hi),
                        axis=1)
        array = array[inside]
    return sorted({as_point(row) for row in skyline_of_array(array)})


def distributed_skyline(
    initiator,
    dims: int,
    *,
    restriction: Region,
    r: int = 0,
    seeded: bool = True,
    strict: bool = True,
    constraint: Rect | None = None,
    sink=None,
    executor=None,
    cache=None,
):
    """End-to-end distributed skyline from ``initiator``.

    With ``seeded`` (default) the query first routes to the peer owning
    the preference origin — where the most dominating tuples live, the
    same starting point SSP and DSL use — and ripples out from there with
    a warm partial skyline.  Pass ``constraint`` for a constrained skyline
    (the skyline among tuples inside the box).  ``cache`` (a
    :class:`~repro.net.resultcache.CacheDirectory`) enables exact and
    semantic answer reuse; it requires the seeded driver.  Returns a
    :class:`~repro.net.context.QueryResult` whose ``answer`` is the sorted
    global skyline.
    """
    from ..core.framework import run_ripple
    from .drivers import run_seeded

    handler = SkylineHandler(dims, constraint=constraint)
    if not seeded:
        if cache is not None:
            raise ValueError("answer caching requires the seeded driver")
        return run_ripple(initiator, handler, r,
                          restriction=restriction, strict=strict, sink=sink,
                          executor=executor)
    return run_seeded(initiator, handler, r, restriction=restriction,
                      seed_point=handler.origin, strict=strict, sink=sink,
                      executor=executor, cache=cache)


class SkylineHandler(QueryHandler):
    """RIPPLE callbacks for (optionally constrained) skyline queries.

    The unconstrained query carries no parameters (Section 5.1);
    ``origin`` is the preference origin used for link prioritization, the
    zero vector by default.  With a ``constraint`` box the query becomes
    the constrained skyline DSL processes (Section 2.2): the skyline of
    the tuples inside the box, with the box's lower-left corner as the
    natural origin and links outside the box pruned outright.  A box
    with a non-finite coordinate or with ``lo >= hi`` along some
    dimension (half-open, it selects nothing) is rejected, as is an
    origin that is not a finite ``dims``-vector.
    """

    def __init__(self, dims: int, *, origin: Sequence[float] | None = None,
                 constraint: Rect | None = None):
        if dims <= 0:
            raise ValueError("dims must be positive")
        if constraint is not None:
            if constraint.dims != dims:
                raise ValueError("constraint dimensionality mismatch")
            if not all(map(isfinite, constraint.lo + constraint.hi)):
                raise ValueError(f"constraint needs finite coordinates, "
                                 f"got {constraint}")
            if any(lo >= hi for lo, hi in zip(constraint.lo, constraint.hi)):
                raise ValueError(f"constraint {constraint} is empty: it "
                                 f"needs lo < hi in every dimension")
        self.dims = dims
        self.constraint = constraint
        if origin is not None:
            self.origin: Point = tuple(float(v) for v in origin)
            if len(self.origin) != dims \
                    or not all(map(isfinite, self.origin)):
                raise ValueError(f"origin must be a finite {dims}-d point, "
                                 f"got {self.origin}")
        elif constraint is not None:
            self.origin = constraint.lo
        else:
            self.origin = (0.0,) * dims
        self._empty = np.empty((0, dims))
        #: The last sequence-of-points state seen and its rows: callers
        #: that hold such a state hand the same object to every callback.
        self._coerced: tuple[object, np.ndarray] = ((), self._empty)
        #: ``(received, local, forwarded)`` of the last
        #: ``compute_local_state``: its pass already produced the state
        #: ``compute_global_state`` is asked for next.
        self._passed: tuple[object, object, np.ndarray] = (
            None, None, self._empty)

    def _rows(self, state: _StateLike) -> np.ndarray:
        """``state`` as rows; a sequence of points is converted once."""
        if isinstance(state, np.ndarray):
            return state
        seen, rows = self._coerced
        if state is not seen:
            rows = _distinct(_lexsorted(np.asarray(state, dtype=float))) \
                if len(state) else self._empty
            self._coerced = (state, rows)
        return rows

    # -- local skylines -----------------------------------------------------

    def _local_skyline(self, store: LocalStore) -> SkylineState:
        """The peer's local (constrained) skyline, cached on the store.

        Both the local state (Algorithm 10) and the local answer
        (Algorithm 12) need this reduction; the store memoizes it per
        constraint and store version, so each peer runs the kernel at most
        once per query — and not at all on re-queries of a static network.
        Lexsorted; a tuple the store holds twice appears twice.
        """
        return store.cached(("local-skyline", self.constraint),
                            lambda: self._compute_local_skyline(store))

    def _compute_local_skyline(self, store: LocalStore) -> SkylineState:
        array = store.array
        if self.constraint is not None and len(array):
            inside = np.all((array >= self.constraint.lo)
                            & (array < self.constraint.hi), axis=1)
            array = array[inside]
        return _lexsorted(skyline_of_array(array))

    # -- states (Algorithms 10, 11, 13) -------------------------------------

    def initial_state(self) -> SkylineState:
        return self._empty

    def compute_local_state(self, store: LocalStore,
                            global_state: _StateLike) -> SkylineState:
        """Algorithm 10: local skyline points that survive the global view."""
        local, forwarded = _merge_antichains(self._rows(global_state),
                                             self._local_skyline(store))
        self._passed = (global_state, local, forwarded)
        return local

    def compute_global_state(self, global_state: _StateLike,
                             local_state: _StateLike) -> SkylineState:
        """Algorithm 11: skyline of the received view plus local survivors."""
        received, local, forwarded = self._passed
        if global_state is received and local_state is local:
            return forwarded
        return _merge_antichains(self._rows(global_state),
                                 self._rows(local_state))[1]

    def update_local_state(self, states: Sequence[_StateLike]
                           ) -> SkylineState:
        """Algorithm 13: skyline of the union of the received states."""
        merged = self._empty
        for state in states:
            merged = _merge_antichains(merged, self._rows(state))[1]
        return merged

    # -- answers (Algorithm 12) ----------------------------------------------

    def compute_local_answer(self, store: LocalStore,
                             local_state: _StateLike) -> np.ndarray:
        """The locally stored tuples among the state's survivors."""
        rows = self._rows(local_state)
        local = self._local_skyline(store)
        if not len(rows) or rows is local:
            return rows
        if not len(local):
            return local
        mine = (rows[:, None, :] == local).all(2).any(1)
        return rows if mine.all() else rows[mine]

    def answer_size(self, answer: np.ndarray) -> int:
        return len(answer)

    def finalize(self, answers: Sequence[np.ndarray]) -> list[Point]:
        rows = skyline_of_array(np.concatenate([self._empty, *answers]))
        return [tuple(row) for row in _distinct(_lexsorted(rows)).tolist()]

    # -- link decisions (Algorithms 14, 15) -----------------------------------

    def is_link_relevant(self, region: Region,
                         global_state: _StateLike) -> bool:
        cover = region.cover()
        if self.constraint is not None and not any(
                rect.intersects(self.constraint) for rect in cover):
            return False
        state = self._rows(global_state)
        # Irrelevant iff known tuples dominate every reachable part of
        # the region, i.e. the best corner of each rectangle of its cover.
        return not all(_dominates_corner(state, rect.lo) for rect in cover)

    def link_priority(self, region: Region) -> float:
        return min(mindist(self.origin, rect) for rect in region.cover())
