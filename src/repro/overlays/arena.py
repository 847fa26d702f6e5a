"""Arena overlay substrate: structure-of-arrays peers at 100k–1M scale.

Per-peer Python objects (a ``MidasPeer`` with a dict-backed link table, a
heap-allocated ``LocalStore``, a ``Node`` chain up the split tree) cap the
simulable network at a few hundred peers — the substrate, not the
algorithm, is the bottleneck the paper's fig7 stops at 200 peers for.
This module rebuilds the substrate as an *arena*: every per-peer quantity
lives in one flat typed NumPy array —

* tuple storage: one ``(T, d)`` row block plus a CSR offset table
  (``store_ptr``), each peer's store a zero-copy
  :meth:`~repro.common.store.LocalStore.view_of` slice;
* link adjacency: CSR ``link_ptr``/``link_target`` plus per-family region
  payload arrays (:class:`MirrorArena`), or — for the scalable MIDAS
  builder (:class:`MidasArena`) — no link arrays at all: a balanced
  dyadic k-d tree is fully described by ``(n, depth)``, so link regions
  and targets are *derived* from a peer's path bits on demand.

The arrays are the overlay; peers materialize lazily as flyweight
:class:`ArenaPeer` views satisfying the existing
:class:`~repro.core.framework.PeerLike` protocol, so ``core/framework``,
``net/eventsim``, ``net/faults`` and every handler run **unchanged** and
bit-identical on an arena (the hypothesis suite pins answers and
``QueryStats`` against the object overlays).

On top of the substrate sits the *batched wavefront* executor
(:func:`wavefront_execute`): the parallel extreme (``r = 0``) of
Algorithm 3 is evaluated level-synchronously, and all local reductions of
the peers touched in one expansion wave run as a single grouped kernel
call (:func:`prime_topk_wave` / :func:`prime_skyline_wave`) that *primes*
each store's computation cache — the shared per-peer step
(:class:`~repro.core.framework._Visit`) then hits the primed entries
instead of reducing per peer.  See docs/SCALE.md for why running that
step wave by wave yields the depth-first engine's answers and
``QueryStats`` exactly.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Sequence, overload

import numpy as np

from ..common.geometry import Frustum, Rect, as_point, contains_batch
from ..common.hashing import mix, mix_step
from ..common.scoring import ScoringFunction
from ..common.store import LocalStore
from ..core.framework import (Link, LinkTable, PeerLike, _Visit, execute,
                              seed_cuts)
from ..core.handler import QueryHandler
from ..core.regions import (ArcRegion, FrustumRegion, RectRegion, Region,
                            domain_region)
from ..net.context import QueryContext, QueryResult
from ..obs.trace import TraceSink
from ..queries.skyline import (SkylineHandler, _all_pairs, _first_of_runs,
                               _skyline_mask)
from ..queries.topk import TopKHandler

__all__ = ["ArenaPeer", "MidasArena", "MirrorArena", "OverlayArena",
           "prime_skyline_wave", "prime_topk_wave", "wavefront_execute"]

#: Groups whose distinct-row count exceeds this run through the blocked
#: per-group kernel instead of the padded all-pairs tensor (whose memory
#: grows with the square of the padded width).
_PAD_CAP = 512

#: Element budget for one padded comparison tensor; buckets are chunked
#: so ``chunk * cap**2 * dims`` stays below it.
_PAD_BUDGET = 32_000_000


class ArenaPeer:
    """A flyweight :class:`~repro.core.framework.PeerLike` view of one row.

    Views are created lazily and cached per arena, so object identity is
    stable (``arena.peer(i) is arena.peer(i)``) while untouched peers
    cost nothing.  The store materializes on first access as a read-only
    zero-copy slice of the substrate; the link table is built on first
    access and cached (arenas are immutable snapshots — no churn, no
    epochs), for box regions as arrays whose ``Link`` objects appear
    only when indexed (:meth:`OverlayArena.link_table`).
    """

    __slots__ = ("arena", "index", "peer_id", "_store", "_links")

    def __init__(self, arena: "OverlayArena", index: int) -> None:
        self.arena = arena
        self.index = index
        self.peer_id: int = int(arena.peer_ids[index])
        self._store: LocalStore | None = None
        self._links: LinkTable | None = None

    @property
    def store(self) -> LocalStore:
        if self._store is None:
            self._store = LocalStore.view_of(
                self.arena.store_rows(self.index))
        return self._store

    def links(self) -> LinkTable:
        if self._links is None:
            self._links = self.arena.link_table(self.index)
        return self._links

    def __repr__(self) -> str:
        return (f"ArenaPeer(id={self.peer_id}, "
                f"arena={type(self.arena).__name__})")


class _ArenaPeers(Sequence[ArenaPeer]):
    """Lazy ``overlay.peers()`` sequence: views materialize on indexing."""

    __slots__ = ("_arena",)

    def __init__(self, arena: "OverlayArena") -> None:
        self._arena = arena

    def __len__(self) -> int:
        return len(self._arena)

    @overload
    def __getitem__(self, index: int) -> ArenaPeer: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[ArenaPeer]: ...

    def __getitem__(self, index: int | slice
                    ) -> ArenaPeer | Sequence[ArenaPeer]:
        if isinstance(index, slice):
            return [self._arena.peer(i)
                    for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._arena.peer(index)

    def __iter__(self) -> Iterator[ArenaPeer]:
        return (self._arena.peer(i) for i in range(len(self)))


class OverlayArena:
    """Shared substrate state: stores and peer views.

    Subclasses contribute the link encoding (:meth:`decode_links`,
    :meth:`link_table`); everything protocol-facing (``peers()``,
    ``domain()``, ``random_peer()``) lives here.
    """

    def __init__(self, *, dims: int, peer_ids: np.ndarray,
                 store_ptr: np.ndarray, tuples: np.ndarray) -> None:
        n = len(peer_ids)
        if store_ptr.shape != (n + 1,):
            raise ValueError("store_ptr must have one offset per peer + 1")
        self.dims = dims
        self.peer_ids = np.ascontiguousarray(peer_ids, dtype=np.int64)
        self.store_ptr = np.ascontiguousarray(store_ptr, dtype=np.int64)
        self.tuples = np.ascontiguousarray(tuples, dtype=float)
        self.tuples.flags.writeable = False
        #: Arenas are immutable snapshots — the structural epoch never
        #: moves, so CacheDirectory never rescans its peer registry.
        self.epoch = 0
        self._views: dict[int, ArenaPeer] = {}
        #: :meth:`peer`, bound once: every link table holds it.
        self._peer_of = self.peer

    # -- protocol surface --------------------------------------------------

    def __len__(self) -> int:
        return len(self.peer_ids)

    def peers(self) -> Sequence[ArenaPeer]:
        return _ArenaPeers(self)

    def peer(self, index: int) -> ArenaPeer:
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = ArenaPeer(self, index)
        return view

    def random_peer(self, rng: np.random.Generator) -> ArenaPeer:
        return self.peer(int(rng.integers(len(self))))

    def domain(self) -> RectRegion:
        return domain_region(self.dims)

    def total_tuples(self) -> int:
        return int(self.store_ptr[-1])

    def store_rows(self, index: int) -> np.ndarray:
        """The substrate row range holding peer ``index``'s tuples."""
        return self.tuples[self.store_ptr[index]:self.store_ptr[index + 1]]

    def decode_links(self, index: int) -> list[Link]:
        """Peer ``index``'s links as objects: the arc / frustum form, and
        the reference the array-built box tables are tested against."""
        raise NotImplementedError

    def link_table(self, index: int) -> LinkTable:
        """What ``peer(index).links()`` memoises; box families override
        it to hand over arrays instead of decoded links."""
        return LinkTable(self.decode_links(index))

    def nbytes(self) -> int:
        """Substrate memory footprint (the flat arrays, not the views)."""
        return sum(int(a.nbytes) for a in self._arrays())

    def _arrays(self) -> list[np.ndarray]:
        return [self.peer_ids, self.store_ptr, self.tuples]


class MirrorArena(OverlayArena):
    """An exact structure-of-arrays snapshot of an object overlay.

    Built by :func:`repro.overlays.arena_build.from_overlay`: same peer
    ids, same link order, bit-equal link regions and store rows — so any
    engine run over the mirror reproduces the object overlay's answers
    and ``QueryStats`` exactly.  Link regions are encoded per overlay
    family (``kind``): rectangles (MIDAS), ring-arc pieces (Chord), or
    frustums (CAN).
    """

    def __init__(self, *, kind: str, dims: int, peer_ids: np.ndarray,
                 store_ptr: np.ndarray, tuples: np.ndarray,
                 link_ptr: np.ndarray, link_target: np.ndarray,
                 link_payload: dict[str, np.ndarray]) -> None:
        super().__init__(dims=dims, peer_ids=peer_ids, store_ptr=store_ptr,
                         tuples=tuples)
        if kind not in ("rect", "arc", "frustum"):
            raise ValueError(f"unknown region family {kind!r}")
        self.kind = kind
        self.link_ptr = np.ascontiguousarray(link_ptr, dtype=np.int64)
        self.link_target = np.ascontiguousarray(link_target, dtype=np.int64)
        self.link_payload = link_payload
        #: Exact region partitions (rect/arc) support strict single-visit
        #: mode; conservative frustum covers require dedup, like CAN.
        self.strict_default = kind != "frustum"

    def max_links(self) -> int:
        return int(np.diff(self.link_ptr).max(initial=0))

    def decode_links(self, index: int) -> list[Link]:
        lo, hi = int(self.link_ptr[index]), int(self.link_ptr[index + 1])
        return [Link(peer=self.peer(int(self.link_target[e])),
                     region=self._decode_region(e))
                for e in range(lo, hi)]

    def link_table(self, index: int) -> LinkTable:
        if self.kind != "rect":
            return super().link_table(index)
        edges = slice(self.link_ptr[index], self.link_ptr[index + 1])
        targets = self.link_target[edges]
        return LinkTable.from_boxes(
            self._peer_of, targets.tolist(), self.peer_ids[targets].tolist(),
            self.link_payload["lo"][edges], self.link_payload["hi"][edges])

    def _decode_region(self, e: int) -> Region:
        pay = self.link_payload
        if self.kind == "rect":
            return RectRegion(Rect(as_point(pay["lo"][e]),
                                   as_point(pay["hi"][e])))
        if self.kind == "arc":
            pieces = pay["pieces"][e]
            return ArcRegion(tuple(
                (float(lo), float(hi))
                for lo, hi in pieces if not np.isnan(lo)))
        base = Rect(as_point(pay["base_lo"][e]), as_point(pay["base_hi"][e]))
        top = Rect(as_point(pay["top_lo"][e]), as_point(pay["top_hi"][e]))
        return FrustumRegion(Frustum(int(pay["axis"][e]), base, top))


class MidasArena(OverlayArena):
    """A balanced MIDAS overlay at scale, with *implicit* dyadic links.

    The network is a balanced midpoint-split k-d tree over ``[0, 1]^d``:
    with ``n = 2**D + m`` peers, the first ``m`` level-``D`` nodes (in
    path order) split once more, so every leaf sits at depth ``D`` or
    ``D + 1``.  Peer ``i``'s path bits, zone rectangle, link regions
    (sibling-subtree rectangles) and link targets (seeded ``mix`` descent
    — the MIDAS ``"random"`` link policy) are all *derived* from ``i``
    alone, so the arena stores no per-link region arrays at any scale:
    the substrate is ``O(n + T)`` integers and tuple rows.

    ``link_target`` may optionally be precomputed vectorized (one
    :func:`~repro.common.hashing.mix_array` sweep per descent level, see
    ``arena_build.midas_arena``) for workloads that touch every peer —
    full-traversal Lemma validation — where the per-peer scalar descent
    would dominate.
    """

    def __init__(self, *, dims: int, store_ptr: np.ndarray,
                 tuples: np.ndarray, base_depth: int, extra: int,
                 seed: int = 0, link_ptr: np.ndarray | None = None,
                 link_target: np.ndarray | None = None) -> None:
        n = (1 << base_depth) + extra
        if not 0 <= extra < (1 << base_depth):
            raise ValueError(f"extra splits {extra} out of range for "
                             f"depth {base_depth}")
        super().__init__(dims=dims, peer_ids=np.arange(n, dtype=np.int64),
                         store_ptr=store_ptr, tuples=tuples)
        self.base_depth = base_depth
        self.extra = extra
        self.seed = seed
        self.link_ptr = link_ptr
        self.link_target = link_target
        self.strict_default = True
        # The closed form of every box, per level (never per peer).  Level
        # ``l`` halves axis ``l % dims``: ``_widths[k, j]`` is axis ``j``'s
        # extent in a cell of depth ``k``, and ``_halves[l]`` is zero but
        # on the axis level ``l`` splits, where it is the new extent.  A
        # cell's lower corner is the sum of the halves of the levels whose
        # path bit is 1, so the level-``l`` link box — the sibling cell of
        # the ``l + 1``-bit path prefix — starts at the halves of the bits
        # above ``l``, plus level ``l``'s half where its bit is 0, and is
        # as wide as a cell of depth ``l + 1``.  Both corners of every
        # level are therefore one product of a peer's bits (after a
        # constant leading 1, see ``_path_bits``) with ``_boxes``.  Every
        # partial sum is dyadic with at most ``max_links() + 1``
        # significant bits, so it is exact in binary floating point in any
        # order of summation: the boxes are the ones a midpoint walk down
        # the path produces, bit for bit.
        levels = self.max_links()
        depths = np.arange(levels + 1)[:, None]
        axes = np.arange(dims)
        self._widths = np.ldexp(1.0, -((depths - axes + dims - 1) // dims))
        self._halves = np.where(depths[:-1] % dims == axes,
                                self._widths[1:], 0.0)
        above = np.triu(np.ones((levels, levels)), 1)[:, :, None]
        sibling = (above * self._halves[:, None, :]
                   - np.eye(levels)[:, :, None] * self._halves
                   ).reshape(levels, levels * dims)
        lo = np.concatenate(([self._halves.ravel()], sibling))
        hi = lo + np.concatenate(([self._widths[1:].ravel()],
                                  np.zeros_like(sibling)))
        self._boxes = np.concatenate((lo, hi), axis=1)
        self._shifts = np.arange(levels, -1, -1)

    # -- dyadic structure --------------------------------------------------

    def depth_of(self, index: int) -> int:
        return self.base_depth + 1 if index < 2 * self.extra \
            else self.base_depth

    def path_of(self, index: int) -> int:
        """The peer's root-to-leaf bit path, packed MSB-first."""
        return index if index < 2 * self.extra else index - self.extra

    def _leaf_index(self, value: int, length: int) -> int:
        """Inverse of :meth:`path_of`: leaf path -> peer index."""
        return value if length > self.base_depth else value + self.extra

    def _is_leaf(self, value: int, length: int) -> bool:
        if length > self.base_depth:
            return True
        return length == self.base_depth and value >= self.extra

    def max_links(self) -> int:
        return self.base_depth + (1 if self.extra else 0)

    def zone(self, index: int) -> Rect:
        """The peer's zone rectangle, decoded from its path bits."""
        lo = self._path_bits([index])[0, 1:] @ self._halves
        hi = lo + self._widths[self.depth_of(index)]
        return Rect(tuple(lo.tolist()), tuple(hi.tolist()))

    def _path_bits(self, indexes: Sequence[int]) -> np.ndarray:
        """``(N, 1 + max_links())`` 0/1 ints: a constant 1, then each
        peer's path bits, root level first (a path one level shorter ends
        in a 0)."""
        levels = self.max_links()
        short = levels - self.base_depth
        aligned = [(1 << levels) | (index if index < 2 * self.extra
                                    else (index - self.extra) << short)
                   for index in indexes]
        return (np.array(aligned)[:, None] >> self._shifts) & 1

    def _link_boxes(self, indexes: Sequence[int]
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, each ``(N, max_links(), dims)``: the link boxes
        of peers ``indexes`` in one closed-form pass.  Row ``l`` of a
        peer is its level-``l`` link's box (filler past its depth)."""
        boxes = (self._path_bits(indexes) @ self._boxes).reshape(
            len(indexes), 2, -1, self.dims)
        return boxes[:, 0], boxes[:, 1]

    def locate_index(self, point: Sequence[float]) -> int:
        """The peer index owning ``point`` (half-open zones)."""
        value, length = 0, 0
        lo = [0.0] * self.dims
        hi = [1.0] * self.dims
        while not self._is_leaf(value, length):
            j = length % self.dims
            mid = (lo[j] + hi[j]) / 2.0
            if point[j] >= mid:
                value = (value << 1) | 1
                lo[j] = mid
            else:
                value = value << 1
                hi[j] = mid
            length += 1
        return self._leaf_index(value, length)

    def route_hop(self, peer: ArenaPeer, point: Sequence[float]
                  ) -> ArenaPeer | None:
        """Greedy routing's next peer from ``peer`` toward ``point`` —
        the target of its first link whose box holds ``point``, else None
        — from path bits, no table built.

        Over ``[0, 1)^d`` the cells are half-open like ``Rect.contains``:
        the point's owner (:meth:`locate_index`) shares the peer's path
        down to the first level where the two part, so the point lies in
        that level's sibling cell and in no link box above it.  A point
        outside ``[0, 1)^d`` lies in no link box at all."""
        if not all(0.0 <= value < 1.0 for value in point):
            return None
        index, owner = peer.index, self.locate_index(point)
        path, depth = self.path_of(index), self.depth_of(index)
        other, length = self.path_of(owner), self.depth_of(owner)
        common = min(depth, length)
        split = (path >> (depth - common)) ^ (other >> (length - common))
        if not split:
            return None
        return self.peer(self._link_targets(index)[common
                                                   - split.bit_length()])

    # -- links -------------------------------------------------------------

    def _link_targets(self, index: int) -> list[int]:
        """The peer index each level's link points at, root level first."""
        if self.link_target is not None and self.link_ptr is not None:
            return self.link_target[
                self.link_ptr[index]:self.link_ptr[index + 1]].tolist()
        path, depth = self.path_of(index), self.depth_of(index)
        prefix = mix(self.seed, index)
        return [self._descend(prefix, (path >> (depth - 1 - level)) ^ 1,
                              level + 1) for level in range(depth)]

    def decode_links(self, index: int) -> list[Link]:
        lo, hi = self._link_boxes([index])
        return [Link(peer=self.peer(target),
                     region=RectRegion(Rect(tuple(box_lo), tuple(box_hi))))
                for target, box_lo, box_hi in zip(
                    self._link_targets(index), lo[0].tolist(),
                    hi[0].tolist())]

    def link_table(self, index: int) -> LinkTable:
        return self.link_tables([index])[0]

    def link_tables(self, indexes: Sequence[int],
                    restrictions: Sequence[Region] | None = None
                    ) -> list[LinkTable]:
        """:meth:`link_table` of each of ``indexes``, derived in one
        pass; each table's cut of its entry in ``restrictions`` is
        memoised too where :func:`seed_cuts` can."""
        lo, hi = self._link_boxes(indexes)
        tables = []
        for k, index in enumerate(indexes):
            # Peer ids are the indexes (``peer_ids`` is an ``arange``).
            targets = self._link_targets(index)
            levels = len(targets)
            tables.append(LinkTable.from_boxes(
                self._peer_of, targets, targets, lo[k, :levels],
                hi[k, :levels]))
        if restrictions is not None:
            seed_cuts(tables, lo, hi, restrictions)
        return tables

    def _descend(self, prefix: int, value: int, length: int) -> int:
        """The MIDAS random-descent representative of a sibling subtree.

        Reproduces ``MidasOverlay._random_descent``: at every internal
        node the branch bit is ``mix(seed, owner, path_key) & 1``, with
        ``path_key`` the 1-prefixed packed path, continued from ``prefix
        = mix(seed, owner)`` by one ``mix_step``.
        """
        while not self._is_leaf(value, length):
            bit = mix_step(prefix, (1 << length) | value) & 1
            value = (value << 1) | bit
            length += 1
        return self._leaf_index(value, length)


# ---------------------------------------------------------------------------
# Grouped wave kernels (cache priming)
# ---------------------------------------------------------------------------

def prime_topk_wave(fn: ScoringFunction, stores: Sequence[LocalStore]
                    ) -> None:
    """Score every store touched by a wave in one grouped kernel call.

    Concatenates the stores' row blocks, evaluates ``fn.score_batch``
    once, recovers each store's stable descending order with a single
    ``lexsort`` (primary key: store, secondary: score descending, ties by
    row position — exactly ``argsort(-scores, kind="stable")`` per
    group), and primes every store's ``("score-index", fn)`` cache entry
    with its slice.  The subsequent per-peer ``top_scoring`` /
    ``scoring_at_least`` calls hit the primed entries, so the wave costs
    one kernel invocation instead of one per peer.
    """
    live = [s for s in stores if len(s) and s.cache_enabled]
    if len(live) < 2:
        return
    sizes = np.fromiter((len(s) for s in live), dtype=np.int64,
                        count=len(live))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    concat = np.concatenate([s.array for s in live], axis=0)
    scores = fn.score_batch(concat)
    group = np.repeat(np.arange(len(live)), sizes)
    order = np.lexsort((-scores, group))
    for g, store in enumerate(live):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        local_order = order[lo:hi] - lo
        local_scores = scores[lo:hi]
        store.prime(("score-index", fn),
                    (local_scores, local_order, -local_scores[local_order]))


def prime_skyline_wave(constraint: Rect | None,
                       stores: Sequence[LocalStore]) -> None:
    """Compute every store's local skyline in one grouped kernel call.

    Reproduces ``skyline_of_array`` per store — same dominance-order
    sort, duplicate collapse/re-expansion, and survivor set — but over
    the concatenation of all stores of the wave: one grouped lexsort,
    one adjacent-dedup pass, and padded all-pairs dominance tensors per
    group-size bucket (oversized groups fall back to the blocked kernel).
    Each store's ``("local-skyline", constraint)`` entry is primed with
    its survivor rows, lexsorted, bit-identical to the scalar computation.
    """
    live = [s for s in stores if s.cache_enabled]
    if len(live) < 2:
        return
    sizes = np.fromiter((len(s) for s in live), dtype=np.int64,
                        count=len(live))
    total = int(sizes.sum())
    dims = live[0].dims
    if total:
        concat = np.concatenate([s.array for s in live], axis=0)
        group = np.repeat(np.arange(len(live)), sizes)
    else:
        concat = np.empty((0, dims))
        group = np.empty(0, dtype=np.int64)
    if constraint is not None and total:
        inside = contains_batch(concat, np.asarray(constraint.lo),
                                np.asarray(constraint.hi))
        concat, group = concat[inside], group[inside]
    key = ("local-skyline", constraint)
    if not len(concat):
        for store in live:
            store.prime(key, concat)
        return
    # Grouped dominance order: per group, sort by coordinate sum then
    # lexicographically (``skyline._dominance_order``).
    sums = concat.sum(axis=1)
    axis_keys = tuple(concat[:, dim] for dim in range(dims - 1, -1, -1))
    order = np.lexsort(axis_keys + (sums, group))
    data, grp = concat[order], group[order]
    # Collapse exact duplicates (adjacent within a group after sorting).
    distinct = _first_of_runs(data)
    distinct[1:] |= grp[1:] != grp[:-1]
    starts = np.flatnonzero(distinct)
    counts = np.diff(np.append(starts, len(data)))
    uniq, ug = data[starts], grp[starts]
    keep = _grouped_skyline_keep(uniq, ug, len(live))
    out_counts = np.where(keep, counts, 0)
    rows = np.repeat(uniq, out_counts, axis=0)
    row_group = np.repeat(ug, out_counts)
    # The handler keeps a local skyline lexsorted, not in dominance order.
    rows = rows[np.lexsort(tuple(rows.T[::-1]) + (row_group,))]
    cuts = np.searchsorted(row_group, np.arange(len(live) + 1))
    for g, store in enumerate(live):
        store.prime(key, rows[cuts[g]:cuts[g + 1]])


def _grouped_skyline_keep(uniq: np.ndarray, ug: np.ndarray,
                          group_count: int) -> np.ndarray:
    """Survivor mask over distinct dominance-ordered rows, per group.

    A row survives iff no other distinct row of the same group is
    componentwise ``<=`` it (which, among distinct rows, is dominance).
    Groups are bucketed by size: small groups share one padded
    ``(d, groups, width, width)`` comparison tensor per bucket, reduced
    over its leading dims axis like every skyline kernel (padding rows
    are ``+inf``, which can never dominate); oversized groups run the
    blocked kernel ``skyline_of_array`` runs.
    """
    keep = np.zeros(len(uniq), dtype=bool)
    sizes = np.bincount(ug, minlength=group_count)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    keep[offsets[:-1][sizes == 1]] = True
    prev = 1
    for cap in (4, 16, 64, _PAD_CAP):
        sel = np.flatnonzero((sizes > prev) & (sizes <= cap))
        prev = cap
        if not len(sel):
            continue
        chunk = max(1, _PAD_BUDGET // (cap * cap * uniq.shape[1]))
        for at in range(0, len(sel), chunk):
            part = sel[at:at + chunk]
            part_sizes = sizes[part]
            pad = np.full((uniq.shape[1], len(part), cap), np.inf)
            row = np.repeat(np.arange(len(part)), part_sizes)
            col = _concat_aranges(part_sizes)
            src = col + np.repeat(offsets[part], part_sizes)
            pad[:, row, col] = uniq[src].T
            alive = _all_pairs(pad, pad).sum(axis=1) <= 1
            keep[src] = alive[row, col]
    for g in np.flatnonzero(sizes > _PAD_CAP):
        # A handful of oversized groups, each one blocked kernel call —
        # a per-*group* loop over the wave, never a per-peer scan.
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        keep[lo:hi] = _skyline_mask(uniq[lo:hi])
    return keep


def _concat_aranges(sizes: np.ndarray) -> np.ndarray:
    """``[0..s0), [0..s1), ...`` concatenated, vectorized."""
    total = int(sizes.sum())
    out = np.arange(total, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    out -= np.repeat(starts, sizes)
    return out


def _prime_wave(handler: QueryHandler, stores: list[LocalStore]) -> None:
    """Dispatch the wave's stores to the handler's grouped kernel.

    Handlers without a batched kernel (diversification) fall through to
    the scalar per-peer path — still bit-identical, just unbatched.
    """
    if isinstance(handler, TopKHandler):
        prime_topk_wave(handler.fn, stores)
    elif isinstance(handler, SkylineHandler):
        prime_skyline_wave(handler.constraint, stores)


def _prime_links(wave: list[tuple[PeerLike, Any, Region]]) -> None:
    """Build the link tables the wave's ``MidasArena`` peers lack, and
    their cuts of the areas they receive, in one
    :meth:`MidasArena.link_tables` call; the visits then find both
    memoised.  (Peers of a query share an arena.)"""
    fresh: dict[int, tuple[ArenaPeer, Region]] = {}
    for peer, _, area in wave:
        if isinstance(peer, ArenaPeer) and peer._links is None \
                and isinstance(peer.arena, MidasArena):
            fresh.setdefault(peer.index, (peer, area))
    if fresh:
        views, areas = zip(*fresh.values())
        for view, table in zip(views, views[0].arena.link_tables(
                list(fresh), areas)):
            view._links = table


# ---------------------------------------------------------------------------
# The batched wavefront executor
# ---------------------------------------------------------------------------

def wavefront_execute(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int,
    *,
    restriction: Region,
    ctx: QueryContext,
    initial_state: Any | None = None,
    base_latency: int = 0,
    answers_to: Hashable | None = None,
    parent_span: int | None = None,
) -> QueryResult:
    """Algorithm 1 (``r = 0``) evaluated level-synchronously in waves.

    A drop-in replacement for :func:`repro.core.framework.execute` (same
    signature; pass it as the ``executor`` of the seeded drivers).  It
    runs the same per-peer step as every other engine
    (:class:`~repro.core.framework._Visit`), only on a different schedule:
    a parallel visit fixes its forwarding state on arrival and never folds
    child responses into it, and latency composes by ``max(1 + child)`` —
    so running the visits wave by wave instead of depth-first reproduces
    the exact answers, the exact processed set, and every ``QueryStats``
    counter (see docs/SCALE.md for the argument).  The payoff: the stores
    of a wave's not-yet-processed peers are primed by a single grouped
    kernel call before their visits run.

    Falls back to the scalar engine whenever the wave evaluation cannot
    apply verbatim: sequential modes (``r > 0``), non-strict contexts
    (conservative region covers may process a peer under either of two
    racing visits — traversal order becomes observable), or an attached
    trace sink (a visit's span closes after its subtree's latency is
    known, which waves would have to propagate back).
    """
    if r != 0 or not ctx.strict or ctx.sink.enabled:
        return execute(initiator, handler, r, restriction=restriction,
                       ctx=ctx, initial_state=initial_state,
                       base_latency=base_latency, answers_to=answers_to,
                       parent_span=parent_span)
    state = handler.initial_state() if initial_state is None \
        else initial_state
    initiator_id = initiator.peer_id if answers_to is None else answers_to
    wave: list[tuple[PeerLike, Any, Region]] = [(initiator, state,
                                                 restriction)]
    now = base_latency
    while True:
        _prime_links(wave)
        _prime_wave(handler, [peer.store for peer, _, _ in wave
                              if peer.peer_id not in ctx.processed])
        next_wave: list[tuple[PeerLike, Any, Region]] = []
        for peer, received, area in wave:
            visit = _Visit(ctx, handler, peer, received, area, 0,
                           initiator_id, now)
            for target, sub in iter(visit.next_forward, None):
                visit.note_forward(target, now)
                next_wave.append((target, visit.gstate, sub))
            visit.finish(now)
        if not next_wave:
            break
        wave = next_wave
        now += 1
    answer = handler.finalize(ctx.collected_answers)
    return QueryResult(answer=answer, stats=ctx.stats(now))


def run_wavefront(
    initiator: PeerLike,
    handler: QueryHandler,
    *,
    restriction: Region,
    strict: bool = True,
    initial_state: Any | None = None,
    sink: TraceSink | None = None,
) -> QueryResult:
    """Convenience wrapper: :func:`wavefront_execute` over a fresh context.

    The batched counterpart of ``run_ripple(initiator, handler, 0, ...)``.
    """
    ctx = QueryContext(strict=strict)
    if sink is not None:
        ctx.sink = sink
    return wavefront_execute(initiator, handler, 0, restriction=restriction,
                             ctx=ctx, initial_state=initial_state)
