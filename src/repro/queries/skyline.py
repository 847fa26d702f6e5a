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
every dominance test is one all-pairs comparison reduced over a leading,
contiguous dims axis (:func:`_all_pairs` on ``(d, m)`` copies) — reduced
over a short trailing axis instead, NumPy runs a strided inner loop of
length d per pair, up to 10x slower at the sizes a visit sees.  The array
kernels are sort-first and block-vectorized: candidates are processed in
chunks tested against the surviving skyline in one such reduction, and
survivors are marked in one mask (:func:`_skyline_mask`, which the
arena's grouped wave kernel shares).  The per-peer local skyline is
cached on the :class:`~repro.common.store.LocalStore` (keyed by
constraint, invalidated by store version), so one query reduces each
peer's array at most once and repeated queries over a static network not
at all.

A state is one lexsorted ``(m, d)`` float array from the store memo to
``finalize``.  A visit's merge is the cross-dominance pass of
:meth:`SkylineHandler._merge`, which hands back its inputs untouched when a
side contributes nothing — the common case at a peer; every fold of many
states (Algorithm 13, :func:`merge_skylines`, ``finalize``) is one
skyline pass over their concatenation.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isfinite, sqrt
from operator import le
from typing import Iterable, Sequence, Union

import numpy as np

from ..common.geometry import (Point, Rect, as_point, contains_batch,
                               dominates)
from ..common.store import LocalStore
from ..core.handler import QueryHandler
from ..core.regions import Region

__all__ = [
    "skyline_of",
    "skyline_of_array",
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
#: the (dims, block, survivors) comparison tensor stays cache-friendly.
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


def _dims_major(rows: np.ndarray) -> np.ndarray:
    """``(m, d)`` rows as a contiguous ``(d, m)`` copy.

    A copy, not a transposed view: a comparison's output takes the
    strides of its inputs, so a view would leave d the innermost axis.
    """
    return np.ascontiguousarray(rows.T)


def _all_pairs(a: np.ndarray, b: np.ndarray,
               op: np.ufunc = np.less_equal) -> np.ndarray:
    """``out[..., i, j] = all(op(a[:, ..., i], b[:, ..., j]))``.

    ``a`` and ``b`` are dims-major (:func:`_dims_major`), so the
    reduction runs over the leading axis: d whole-plane ``&``s rather
    than one strided inner loop of length d per pair.  With the default
    ``op`` it is weak dominance, ``a``'s row ``i`` componentwise ``<=``
    ``b``'s row ``j``.
    """
    return np.logical_and.reduce(op(a[..., :, None], b[..., None, :]), axis=0)


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


def _skyline_mask(uniq: np.ndarray) -> np.ndarray:
    """Survivor mask over distinct ``(m, d)`` rows in dominance order.

    Among distinct rows ``all(a <= b)`` already implies strict
    improvement somewhere, so one ``<=`` reduction is the dominance test.
    The head of the live queue was not eliminated by any confirmed
    skyline point, and sorting put every potential dominator first — so
    after one pairwise pass within the block, its survivors are confirmed
    skyline members.  (Transitivity makes rows that are themselves
    dominated valid witnesses, so no iteration is needed; each row
    trivially satisfies <= with itself, hence ``> 1``.)  The confirmed
    points then prune the whole tail in one comparison: a dominated row
    is dropped the first time a dominator confirms, so it is never
    compared again.
    """
    rest, live = _dims_major(uniq), np.arange(len(uniq))
    keep = np.zeros(len(uniq), dtype=bool)
    while len(live):
        block, index = rest[:, :_BLOCK], live[:_BLOCK]
        alive = _all_pairs(block, block).sum(axis=0) <= 1
        keep[index] = alive
        rest, live = rest[:, _BLOCK:], live[_BLOCK:]
        if len(live):
            # compress, not ``[:, mask]``: fancy indexing along the second
            # axis comes back Fortran-ordered, d innermost again.
            out = ~_all_pairs(block.compress(alive, axis=1), rest).any(axis=0)
            rest, live = rest.compress(out, axis=1), live[out]
    return keep


def skyline_of_array(array: np.ndarray) -> np.ndarray:
    """Vectorized skyline of an ``(m, d)`` array (lower is better).

    Sort-first, block-filtered (:func:`_skyline_mask`): candidates arrive
    in dominance order and each block is cleared against the surviving
    skyline in one vectorized dominance reduction.  Exact duplicates are
    collapsed up front (and re-expanded at the end), which turns the
    dominance test into a single componentwise ``<=`` reduction.
    """
    array = np.asarray(array, dtype=float)
    if len(array) == 0:
        return array
    data = array.take(_dominance_order(array), axis=0)
    # Collapse exact duplicates (adjacent after sorting): `counts` re-expands
    # surviving rows at the end, preserving the duplicate-keeping semantics.
    distinct = _first_of_runs(data)
    if distinct.all():
        return data[_skyline_mask(data)]
    uniq, counts = data[distinct], np.diff(
        np.append(np.flatnonzero(distinct), len(data)))
    keep = _skyline_mask(uniq)
    return np.repeat(uniq[keep], counts[keep], axis=0)


def _lexsorted(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order, first column most significant."""
    return rows.take(np.lexsort(rows.T[::-1]), axis=0) if len(rows) > 1 \
        else rows


def _first_of_runs(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of non-empty ``rows`` that differ from the row
    before them."""
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    np.logical_or.reduce(rows[1:] != rows[:-1], axis=1, out=fresh[1:])
    return fresh


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Lexsorted ``rows`` without repeats (``rows`` itself if it has none)."""
    if len(rows) < 2:
        return rows
    fresh = _first_of_runs(rows)
    return rows if fresh.all() else rows[fresh]


#: What the merge and the corner test read of a state: its rows
#: dims-major, its first column as a list, and the running componentwise
#: minimum of its rows (row ``i`` bounds rows ``0..i``).
_View = tuple[np.ndarray, list[float], np.ndarray]


def _view(rows: np.ndarray) -> _View:
    """The :data:`_View` of lexsorted ``rows``."""
    columns = _dims_major(rows)
    return columns, columns[0].tolist(), np.minimum.accumulate(rows, axis=0)


def _union_skyline(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The lexsorted, distinct skyline of the union of ``parts``: one
    :func:`skyline_of_array` pass over their concatenation."""
    return _distinct(_lexsorted(skyline_of_array(np.concatenate(parts))))


def _dominates_corner(view: _View, corner: Point) -> bool:
    """Whether some row of a distinct, lexsorted state (seen through its
    :func:`_view`) Pareto-dominates ``corner``.

    A dominator's first coordinate is at most the corner's, so a bisect
    bounds the rows worth comparing to a prefix, and the prefix's
    componentwise minimum must itself be <= ``corner`` — on
    ``skyline_static`` those two pure-Python checks settle 93 % of the
    corners.  Among distinct rows, two weak dominators include a strict
    one.
    """
    columns, firsts, minima = view
    stop = bisect_right(firsts, corner[0])
    if not stop or not all(map(le, minima[stop - 1].tolist(), corner)):
        return False
    weak = _all_pairs(columns[:, :stop], np.array(corner)[:, None])
    count = np.count_nonzero(weak)
    return count > 1 or (count == 1 and tuple(
        columns[:, weak.argmax()].tolist()) != tuple(corner))


def merge_skylines(*collections: Sequence[Point]) -> list[Point]:
    """Skyline of the union of point collections, each an antichain.

    Accepts any number of collections (every caller's inputs are already
    individually dominance-free: local skylines and previously merged
    states) and reduces their concatenation in one pass, the fold the
    handler's Algorithm 13 runs.  Returns the sorted distinct points.
    """
    parts = [np.asarray(c, dtype=float) for c in collections if len(c)]
    return [tuple(row) for row in _union_skyline(parts).tolist()] \
        if parts else []


def skyline_reference(array: np.ndarray,
                      constraint: Rect | None = None) -> list[Point]:
    """Centralized oracle: the (optionally constrained) skyline, sorted.

    The skyline is a set of *values*: duplicate tuples collapse, matching
    the set semantics of the distributed states.
    """
    array = np.asarray(array, dtype=float)
    if constraint is not None and len(array):
        array = array[contains_batch(array, constraint.lo, constraint.hi)]
    return sorted({as_point(row) for row in skyline_of_array(array)})


def distributed_skyline(
    initiator,
    dims: int,
    *,
    restriction: Region,
    r: int = 0,
    strict: bool = True,
    constraint: Rect | None = None,
    sink=None,
    executor=None,
    cache=None,
):
    """End-to-end distributed skyline from ``initiator``.

    The query first routes to the peer owning the preference origin —
    where the most dominating tuples live, the same starting point SSP
    and DSL use — and ripples out from there with a warm partial skyline.
    (Algorithm 3 run cold from the initiator is ``run_ripple`` with a
    :class:`SkylineHandler`.)  Pass ``constraint`` for a constrained
    skyline (the skyline among tuples inside the box).  ``cache`` (a
    :class:`~repro.net.resultcache.CacheDirectory`) enables exact and
    semantic answer reuse.  Returns a
    :class:`~repro.net.context.QueryResult` whose ``answer`` is the sorted
    global skyline.
    """
    from .drivers import run_seeded

    handler = SkylineHandler(dims, constraint=constraint)
    handler.check_restriction(restriction)
    return run_seeded(initiator, handler, r, restriction=restriction,
                      seed_point=handler.origin, strict=strict, sink=sink,
                      executor=executor, cache=cache)


class SkylineHandler(QueryHandler):
    """RIPPLE callbacks for (optionally constrained) skyline queries.

    The unconstrained query carries no parameters (Section 5.1);
    ``origin`` is the preference origin used for link prioritization, the
    zero vector.  With a ``constraint`` box the query becomes the
    constrained skyline DSL processes (Section 2.2): the skyline of the
    tuples inside the box, with the box's lower-left corner as the origin
    and links outside the box pruned outright.  A box with a non-finite
    coordinate or with ``lo >= hi`` along some dimension (half-open, it
    selects nothing) is rejected.
    """

    def __init__(self, dims: int, *, constraint: Rect | None = None):
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
        self.origin: Point = (0.0,) * dims if constraint is None \
            else constraint.lo
        self._keyed((dims, constraint))
        self._empty = np.empty((0, dims))
        #: The last sequence-of-points state seen and its rows: callers
        #: that hold such a state hand the same object to every callback.
        self._coerced: tuple[object, np.ndarray] = ((), self._empty)
        #: ``(received, local, forwarded)`` of the last
        #: ``compute_local_state``: its pass already produced the state
        #: ``compute_global_state`` is asked for next.
        self._passed: tuple[object, object, np.ndarray] = (
            None, None, self._empty)
        #: The last state given to :meth:`_view` and its view.
        self._recent: tuple[object, _View] = (None, _view(self._empty))

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

    def _view(self, rows: np.ndarray) -> _View:
        """:func:`_view` of ``rows``, remembered for the last state asked
        about.

        Every link test of a visit and the merge at every child it
        forwards to read the same forwarding state object, so it is
        converted once per run of such calls, not per link or per child.
        """
        if rows is not self._recent[0]:
            self._recent = (rows, _view(rows))
        return self._recent[1]

    def _merge(self, state: np.ndarray, other: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """One cross-dominance pass between two lexsorted antichains.

        Returns ``(survivors, merged)``: the rows of ``other`` no row of
        ``state`` dominates (a row equal to one of ``state`` survives),
        and the lexsorted skyline of the union without repeats.  ``state``
        holds distinct rows (read through :meth:`_view`); ``other`` may
        repeat one (a store can hold a tuple twice).  A side that changes
        nothing comes back as the object passed in.

        Because each side is an antichain, dominance only occurs across
        them, and ``le`` — which rows of ``state`` weakly dominate which
        of ``other`` — splits ``other`` first: a row it misses is fresh, a
        row it hits is beaten unless it equals the state row it hits.  A
        hit row can never beat a state row (that row would be dominated
        within ``state``), so the reverse test is only read for equality
        on hit rows and for the state rows a fresh row beats.
        """
        if not len(other):
            return other, state
        if not len(state):
            return other, _distinct(other)
        cols, rows = self._view(state)[0], _dims_major(other)
        le = _all_pairs(cols, rows)
        hit = le.any(axis=0)
        if hit.any():
            fresh = survivors = other.compress(~hit, axis=0)
            # Equal rows share their first coordinate: the exact test only
            # runs when some hit pair does.
            tie = le & (cols[0][:, None] == rows[0])
            if tie.any():
                beaten = hit & ~(tie & _all_pairs(rows, cols).T).any(axis=0)
                survivors = other.compress(~beaten, axis=0) \
                    if beaten.any() else other
            if hit.all():
                return survivors, state
            other, rows = fresh, rows.compress(~hit, axis=1)
        else:
            survivors = other
        beaten = _all_pairs(rows, cols).any(axis=0)
        kept = state.compress(~beaten, axis=0) if beaten.any() else state
        return survivors, _lexsorted(
            np.concatenate((kept, _distinct(other))))

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
            array = array[contains_batch(array, self.constraint.lo,
                                         self.constraint.hi)]
        return _lexsorted(skyline_of_array(array))

    # -- states (Algorithms 10, 11, 13) -------------------------------------

    def initial_state(self) -> SkylineState:
        return self._empty

    def compute_local_state(self, store: LocalStore,
                            global_state: _StateLike) -> SkylineState:
        """Algorithm 10: local skyline points that survive the global view."""
        local, forwarded = self._merge(self._rows(global_state),
                                       self._local_skyline(store))
        self._passed = (global_state, local, forwarded)
        return local

    def compute_global_state(self, global_state: _StateLike,
                             local_state: _StateLike) -> SkylineState:
        """Algorithm 11: skyline of the received view plus local survivors."""
        received, local, forwarded = self._passed
        if global_state is received and local_state is local:
            return forwarded
        return self._merge(self._rows(global_state),
                           self._rows(local_state))[1]

    def update_local_state(self, states: Sequence[_StateLike]
                           ) -> SkylineState:
        """Algorithm 13: skyline of the union of the received states, in
        one pass; one non-empty state comes back as it was, less repeats."""
        parts = [rows for rows in map(self._rows, states) if len(rows)]
        if len(parts) > 1:
            return _union_skyline(parts)
        return _distinct(parts[0]) if parts else self._empty

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
        mine = _all_pairs(_dims_major(rows), _dims_major(local),
                          np.equal).any(1)
        return rows if mine.all() else rows[mine]

    def finalize(self, answers: Sequence[np.ndarray]) -> list[Point]:
        rows = _union_skyline([self._empty, *answers])
        return [tuple(row) for row in rows.tolist()]

    # -- link decisions (Algorithms 14, 15) -----------------------------------

    def is_link_relevant(self, region: Region,
                         global_state: _StateLike) -> bool:
        cover = region.cover()
        box = self.constraint
        if box is not None and not any(  # no closed box of the cover meets it
                all(map(le, rect.lo, box.hi)) and all(map(le, box.lo, rect.hi))
                for rect in cover):
            return False
        view = self._view(self._rows(global_state))
        # Irrelevant iff known tuples dominate every reachable part of
        # the region, i.e. the best corner of each rectangle of its cover.
        return not all(_dominates_corner(view, rect.lo) for rect in cover)

    def link_priority(self, region: Region) -> float:
        """``min(mindist(origin, rect) for rect in region.cover())``:
        subtract, square (``** 2``), sum in order and ``sqrt`` as
        :func:`~repro.common.geometry.mindist` does, without its
        per-dimension generators.  The clamp picks the same coordinate
        ``min(max(q, l), h)`` does, by comparisons (a box has ``l <= h``).
        """
        return min([sqrt(sum([(q - (l if q < l else h if q > h else q)) ** 2
                              for q, l, h in zip(self.origin, rect.lo,
                                                 rect.hi)]))
                    for rect in region.cover()])
