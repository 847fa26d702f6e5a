"""The RIPPLE query-processing templates (Algorithms 1–3).

One step object, :class:`_Visit`, states Algorithm 3 once: what a peer
does when the query arrives, which link it forwards over next, how it
folds a child's response, and what it ships when done.  ``fast``
(Algorithm 1) and ``slow`` (Algorithm 2) are its ``r = 0`` and
``r = infinity`` degenerations: :func:`run_ripple` at ``r = 0`` and at
``r = SLOW``.  Every engine in the repo is a
*driver* that only decides when those steps run: :func:`_process` here
(depth-first), :mod:`repro.net.eventsim` (a discrete-event queue, plain
or fault-supervised) and :func:`repro.overlays.arena.wavefront_execute`
(level-synchronous waves).

``_process`` evaluates the depth-first traversal with an explicit work
stack rather than native recursion, so a sequential (``r = SLOW``) pass
across a chain-shaped overlay — whose depth equals the network size —
neither overflows the interpreter stack nor requires mutating the global
recursion limit.  The evaluation order (and therefore every statistic)
is identical to the recursive formulation.

The framework is overlay-agnostic: a peer is anything satisfying
:class:`PeerLike` — an id, a :class:`~repro.common.store.LocalStore`, and a
sequence of :class:`Link` objects pairing a neighbor with its region
(a :class:`LinkTable`, which keeps the regions' cover boxes as arrays;
a visit wraps a plain sequence in one).  It is
also query-agnostic: all query logic lives in a
:class:`~repro.core.handler.QueryHandler`.

Cost accounting follows the paper's analysis (see
:mod:`repro.net.context`): forwarding a query is one hop; a sequential
iteration waits ``1 + child latency``; parallel iterations overlap and the
slowest dominates.  These choices reproduce Lemmas 1–3 exactly, which the
test-suite checks against :mod:`repro.core.analysis` on complete overlays.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import (Any, Callable, Hashable, Iterable, Iterator, Mapping,
                    Protocol, Sequence, overload, runtime_checkable)

import numpy as np

from ..common.geometry import Rect
from ..common.store import _CACHE_CAP, LocalStore
from ..net.context import QueryContext, QueryResult
from ..obs.trace import TraceSink, state_size
from .handler import QueryHandler
from .regions import RectRegion, Region

__all__ = ["Link", "LinkTable", "OverlayLike", "PeerLike", "physical_id",
           "run_ripple", "SLOW"]

#: Ripple parameter value that never runs out: every peer uses the
#: sequential loop, i.e. Algorithm 2.  (Any r > maximum link count works.)
SLOW = sys.maxsize

#: Cuts a table of arcs or frustums memoises (:meth:`LinkTable.cut`):
#: what such a peer receives is not bounded by its own structure, so the
#: cap is the per-peer store memo's.
_CUT_CAP = _CACHE_CAP


@dataclass(frozen=True)
class Link:
    """A neighbor plus the region this peer assigns to it."""

    peer: "PeerLike"
    region: Region


class LinkTable(Sequence[Link]):
    """A peer's links: ``Link`` objects, or arrays until one is asked for.

    Overlays memoise one table per peer and epoch.  Every table keeps
    its links' :meth:`~repro.core.regions.Region.cover` boxes as ``lo`` /
    ``hi`` arrays beside its targets' ``peer_ids`` (:meth:`bounds`): one
    box per MIDAS box or CAN frustum, one or two per ring arc.  A visit
    cuts the table with its restriction area once per restriction value
    (:meth:`cut`) and a handler with
    :meth:`~repro.core.handler.QueryHandler.box_bounds` then decides
    every kept link in one call.  Built from ``Link`` objects the arrays
    appear on first use; built :meth:`from_boxes` the arrays come first
    and ``table[i]`` builds its ``Link`` on first access — only the
    links a query is forwarded over ever exist.
    """

    __slots__ = ("_links", "_peer_of", "_targets", "_regions", "_bounds",
                 "_starts", "_boxes", "_cuts", "peer_ids")

    _peer_of: "Callable[[int], PeerLike]"

    def __init__(self, links: Iterable[Link]) -> None:
        #: ``Link``s; ``None`` where :meth:`from_boxes` has built none yet.
        self._links: list[Any] = list(links)
        #: What ``_peer_of`` turns into link targets; none when the table
        #: was built from ``Link`` objects.
        self._targets: list[int] = []
        #: Each link's region; ``None`` until :meth:`region` builds it.
        self._regions: list[Any] = [link and link.region
                                    for link in self._links]
        #: :meth:`cut` per restriction value, oldest first: ``(lo, hi)``
        #: for a box, else the region itself.
        self._cuts: dict[Hashable, Any] = {}

    @classmethod
    def from_boxes(cls, peer_of: "Callable[[int], PeerLike]",
                   targets: list[int], peer_ids: list[Hashable],
                   lo: np.ndarray, hi: np.ndarray) -> "LinkTable":
        """The table of ``peer_of(targets[i])`` over boxes ``lo[i], hi[i]``
        (``peer_ids[i]`` is that peer's id), links built on access."""
        table = cls.__new__(cls)
        table._links = [None] * len(targets)
        table._regions = [None] * len(targets)
        table._peer_of, table._targets = peer_of, targets
        table.peer_ids, table._bounds = peer_ids, (lo, hi)
        table._starts, table._boxes, table._cuts = None, True, {}
        return table

    def __len__(self) -> int:
        return len(self._links)

    @overload
    def __getitem__(self, index: int) -> Link: ...

    @overload
    def __getitem__(self, index: slice) -> list[Link]: ...

    def __getitem__(self, index: int | slice) -> Link | list[Link]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._links)))]
        link = self._links[index]
        if link is None:
            link = self._links[index] = Link(
                self._peer_of(self._targets[index]), self.region(index))
        return link

    def __iter__(self) -> Iterator[Link]:
        if self._targets:
            return map(self.__getitem__, range(len(self._links)))
        return iter(self._links)

    def target(self, index: int) -> "PeerLike":
        """Link ``index``'s peer, without building its ``Link``."""
        link = self._links[index]
        return self._peer_of(self._targets[index]) if link is None \
            else link.peer

    def region(self, index: int) -> Region:
        """Link ``index``'s region, without building its ``Link``."""
        region = self._regions[index]
        if region is None:
            lo, hi = self._bounds
            region = self._regions[index] = RectRegion(Rect(
                tuple(lo[index].tolist()), tuple(hi[index].tolist())))
        return region

    def locate(self, point: Sequence[float]) -> int | None:
        """The first link whose region contains ``point``, else None: the
        link greedy routing takes.  Regions are asked in table order, so
        a lazy table builds one for each link passed, but no ``Link``."""
        for i in range(len(self._links)):
            if self.region(i).contains(point):
                return i
        return None

    def cut(self, restriction: Region) -> "int | tuple[Any, ...]":
        """The links meeting ``restriction``, memoised per restriction
        value.

        An ``int`` ``start`` when, on a table of boxes under a box
        restriction, they are ``table[start:]``, each inside the box
        (zero-volume overlaps count as empty, as in
        ``Rect.intersection``): every overlap is then the link's own
        region.  That is the only cut a tree overlay makes when
        restrictions are node boxes — the links inside a subtree are the
        deeper ones — and one array pass over the boxes finds it.
        Otherwise ``(keep, subs, lo, hi, starts)``: the kept indexes,
        their overlaps by ``Region.intersect`` and the overlaps' cover
        boxes, ``starts`` as in :meth:`bounds`.
        The regions a peer receives repeat.  A tree peer's are its
        ancestors, so a table of boxes keeps ``len(self) + 1`` cuts; the
        arcs and frustums a ring or CAN peer receives are its
        in-neighbours' regions cut down by their own restrictions, which
        nothing in the table bounds, so those keep up to ``_CUT_CAP``.
        Beyond the cap the oldest is dropped.
        """
        rect = restriction.rect if isinstance(restriction, RectRegion) \
            else None
        cuts = self._cuts
        key = restriction if rect is None else (rect.lo, rect.hi)
        cut = cuts.get(key)
        if cut is not None:
            return cut
        own_lo, own_hi = self.bounds()
        if rect is not None and self._boxes:
            lo = np.maximum(own_lo, rect.lo)
            hi = np.minimum(own_hi, rect.hi)
            keep = np.logical_and.reduce(lo < hi, axis=1).nonzero()[0]
            start = len(self._links) - len(keep)
            # Inside the box iff clipping left the link's own box as it
            # was, bit for bit — so its own region is exactly the overlap.
            if not len(keep) or (
                    keep[0] == start
                    and lo[start:].tobytes() == own_lo[start:].tobytes()
                    and hi[start:].tobytes() == own_hi[start:].tobytes()):
                cut = start
        if cut is None:
            kept = [(i, sub) for i in range(len(self._links)) if (
                sub := self.region(i).intersect(restriction)) is not None]
            subs = [sub for _, sub in kept]
            cut = ([i for i, _ in kept], subs, *_cover_arrays(subs))
        if len(cuts) > (len(self._links) if self._boxes else _CUT_CAP - 1):
            del cuts[next(iter(cuts))]
        cuts[key] = cut
        return cut

    def retargeted(self, targets: Mapping[int, "PeerLike"]) -> "LinkTable":
        """A copy whose link ``i`` points at ``targets[i]`` over the same
        region.  The other ``Link``s, the :meth:`cut` memo and, once
        derived, the bounds arrays are this table's own, not rebuilt."""
        table = LinkTable(self)
        table._cuts = self._cuts
        for i, peer in targets.items():
            table._links[i] = Link(peer, table._links[i].region)
        try:
            table._bounds = self._bounds
        except AttributeError:
            return table
        table._starts, table._boxes = self._starts, self._boxes
        table.peer_ids = list(self.peer_ids)
        for i, peer in targets.items():
            table.peer_ids[i] = peer.peer_id
        return table

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, each ``(B, d)``: every link's cover boxes in
        table order; :attr:`peer_ids` lists the targets' ids.  ``B`` is
        ``len(self)`` unless some link's cover has more than one box
        (a wrapping arc); link ``i``'s boxes then start at row
        ``starts[i]`` (``_starts``, else None)."""
        try:
            return self._bounds
        except AttributeError:
            pass
        regions = [link.region for link in self._links]
        lo, hi, self._starts = _cover_arrays(regions)
        self._boxes = all(isinstance(region, RectRegion)
                          for region in regions)
        self.peer_ids: list[Hashable] = [link.peer.peer_id
                                         for link in self._links]
        self._bounds: tuple[np.ndarray, np.ndarray] = (lo, hi)
        return self._bounds

    def link_bounds(self, handler: QueryHandler) -> np.ndarray | None:
        """``handler.box_bounds`` of each link's own region — the max over
        its cover boxes, as ``TopKHandler`` bounds a region — or None
        for a handler without it."""
        bounds = handler.box_bounds(*self.bounds())
        return _per_link(bounds, self._starts)


def seed_cuts(tables: Sequence[LinkTable], lo: np.ndarray, hi: np.ndarray,
              restrictions: Sequence[Region]) -> None:
    """Memoise :meth:`LinkTable.cut` of box tables fresh from one batch,
    each under its restriction, in one array pass where it is a suffix.

    ``tables[k]`` holds the boxes ``lo[k, :len(tables[k])]`` / ``hi`` of
    the ``(N, L, d)`` batch (rows past its length are filler).  The pass
    is ``cut``'s own suffix test over every table at once — clip, keep
    the positive-volume overlaps, then require that they are the table's
    tail and that clipping left each of them as it was, bit for bit.
    Any other cut is left to the table's first ``cut``.
    """
    boxed = [(k, area.rect) for k, area in enumerate(restrictions)
             if isinstance(area, RectRegion)]
    if not boxed:
        return
    rows, rects = zip(*boxed)
    lo, hi = lo[list(rows)], hi[list(rows)]
    cut_lo = np.maximum(lo, np.array([rect.lo for rect in rects])[:, None])
    cut_hi = np.minimum(hi, np.array([rect.hi for rect in rects])[:, None])
    sizes = np.array([len(tables[k]) for k in rows])
    level = np.arange(lo.shape[1])
    valid = level < sizes[:, None]
    keep = np.logical_and.reduce(cut_lo < cut_hi, axis=2) & valid
    starts = sizes - keep.sum(axis=1)
    tail = valid & (level >= starts[:, None])
    same = np.logical_and.reduce(
        (cut_lo.view(np.int64) == lo.view(np.int64))
        & (cut_hi.view(np.int64) == hi.view(np.int64)), axis=2)
    suffix = np.logical_and.reduce((keep == tail) & (same | ~tail), axis=1)
    for k, rect, start, ok in zip(rows, rects, starts.tolist(),
                                  suffix.tolist()):
        if ok:
            tables[k]._cuts.setdefault((rect.lo, rect.hi), start)


def _per_link(bounds: np.ndarray | None, starts: np.ndarray | None
              ) -> np.ndarray | None:
    """Cover-box ``bounds`` as one value per region: the max over each
    region's boxes, which start at ``starts`` (None: one box each)."""
    if bounds is None or starts is None:
        return bounds
    return np.maximum.reduceat(bounds, starts)


def _cover_arrays(regions: Sequence[Region]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(lo, hi, starts)`` of the regions' cover boxes: ``(B, d)`` rows
    in region order, and where each region's run starts when some region
    has more than one box (else None)."""
    covers = [region.cover() for region in regions]
    rects = [rect for cover in covers for rect in cover]
    shape = (len(rects), rects[0].dims if rects else 0)
    lo = np.array([rect.lo for rect in rects], dtype=float).reshape(shape)
    hi = np.array([rect.hi for rect in rects], dtype=float).reshape(shape)
    starts = None
    if len(rects) != len(covers):
        starts = np.cumsum([0, *map(len, covers[:-1])])
    return lo, hi, starts


def _candidates(links: LinkTable, restriction: Region,
                handler: QueryHandler, r: int
                ) -> list[tuple[int, Any, float | None]]:
    """The links whose region meets ``restriction`` (the geometric half of
    the link test), in forwarding order: table order, by ``link_priority``
    of the link's own region when ``r > 0`` (stable).

    One ``(link index, overlap region, bound)`` each, from the table's
    memoised :meth:`LinkTable.cut`.  A handler with ``box_bounds`` bounds
    every overlap in one call over their cover boxes (the max over a
    region's boxes), and orders the links by the same bound of their own
    covers.  On a suffix cut — every cut a tree overlay makes with node
    boxes — each overlap is the link's own region, so that one call
    orders the links too, and a lazy table's region not built yet is
    None until it is asked for.  Without a ``box_bounds`` ``bound`` is
    None and the handler is asked about each region.
    """
    if not len(links):
        return []
    cut = links.cut(restriction)
    if isinstance(cut, int):
        keep: Any = range(cut, len(links))
        lo, hi = links.bounds()
        lo, hi = lo[cut:], hi[cut:]
        own = overlap = handler.box_bounds(lo, hi) if keep else None
        subs = links._regions[cut:]
    else:
        keep, subs, lo, hi, starts = cut
        if not keep:
            return []
        overlap = _per_link(handler.box_bounds(lo, hi), starts)
        own = links.link_bounds(handler)[keep] \
            if r > 0 and overlap is not None else None
    pending = list(zip(keep, subs, [None] * len(subs) if overlap is None
                       else overlap.tolist()))
    if r > 0:
        priority = (-own).tolist() if own is not None else [
            handler.link_priority(links.region(i)) for i in keep]
        pending = [pending[j] for j in sorted(range(len(pending)),
                                              key=priority.__getitem__)]
    return pending


@runtime_checkable
class PeerLike(Protocol):
    """What the templates require of an overlay peer.

    A peer may additionally expose ``physical_id`` when its logical
    identity differs from the machine executing it (a replica holder
    promoted to stand in for a dead owner, see
    :class:`~repro.overlays.replication.PromotedPeer`); liveness checks
    go through :func:`physical_id`, which falls back to ``peer_id``.
    """

    peer_id: Hashable
    store: LocalStore

    def links(self) -> Sequence[Link]:  # pragma: no cover - protocol
        ...


@runtime_checkable
class OverlayLike(Protocol):
    """What network-level tooling requires of an overlay.

    Fault planning, replication, and the failure detector only ever need
    to enumerate the peers; overlay-specific structure (tree, ring,
    zones) stays behind this boundary.
    """

    def peers(self) -> Sequence[PeerLike]:  # pragma: no cover - protocol
        ...


def physical_id(peer: PeerLike) -> Hashable:
    """The id of the machine executing ``peer`` (for liveness checks).

    Ordinary peers execute themselves; a promoted replica holder executes
    under the dead owner's logical ``peer_id`` but crashes (or not) as
    itself.
    """
    return getattr(peer, "physical_id", peer.peer_id)


def _checked_r(r: int) -> int:
    """Every engine's ripple-parameter rule: negative is an error, and
    anything past :data:`SLOW` means ``SLOW``."""
    if r < 0:
        raise ValueError(f"ripple parameter must be non-negative, got {r}")
    return min(r, SLOW)


def run_ripple(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int,
    *,
    restriction: Region,
    strict: bool = True,
    initial_state: Any | None = None,
    sink: TraceSink | None = None,
    executor: Any | None = None,
) -> QueryResult:
    """Process a rank query with ripple parameter ``r`` (Algorithm 3).

    ``restriction`` is the initial restriction area — the entire domain for
    a regular invocation.  ``strict`` controls whether a double visit is a
    simulator error (exact region partitions) or silently deduped
    (conservative covers, e.g. CAN frustums).  ``initial_state`` overrides
    the handler's neutral initial global state — the paper's
    diversification loop passes an explicit threshold this way
    (Algorithm 23, line 10).  ``sink`` attaches a trace recorder (see
    :mod:`repro.obs.trace`); the default records nothing at zero cost.
    ``executor`` swaps the traversal engine for anything
    signature-compatible with :func:`execute` — the arena's batched
    wavefront engine is the in-repo alternative.
    """
    handler.check_restriction(restriction)
    ctx = QueryContext(strict=strict)
    if sink is not None:
        ctx.sink = sink
    engine = executor if executor is not None else execute
    return engine(initiator, handler, r, restriction=restriction, ctx=ctx,
                  initial_state=initial_state)


def execute(
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
    """Low-level entry point: run Algorithm 3 over a caller-owned context.

    Query drivers that prepend a routing/seeding phase (see
    :mod:`repro.queries.drivers`) mark the peers already processed in
    ``ctx``, account the hops already spent in ``base_latency``, and name
    the peer that ultimately receives the answers in ``answers_to`` (the
    real initiator, when the ripple phase starts at a routed-to seed).
    When a trace sink is attached, ``base_latency`` doubles as the virtual
    start time of the ripple phase and ``parent_span`` nests its spans
    under the driver's query span.
    """
    state = handler.initial_state() if initial_state is None else initial_state
    initiator_id = initiator.peer_id if answers_to is None else answers_to
    latency = _process(_Visit(ctx, handler, initiator, state, restriction,
                              _checked_r(r), initiator_id, base_latency,
                              parent_span), base_latency)
    answer = handler.finalize(ctx.collected_answers)
    return QueryResult(answer=answer, stats=ctx.stats(base_latency + latency))


class _Visit:
    """One peer's execution of Algorithm 3 — the only statement of it.

    Construction is the query arriving at the peer (``now``): the visit is
    recorded, the local state computed from the peer's store (or the
    neutral one on a deduplicated re-visit), the forwarding state derived,
    the ``process`` span opened, and the links that overlap the
    restriction area lined up — prioritised when ``r > 0``.  From there
    the visit only *steps*; a driver decides when:

    * :meth:`next_forward` — the next relevant link, as ``(target,
      sub-region)``: the link test of both loops (Alg. 3, lines 4-11 and
      13-17).  :meth:`note_forward` accounts an unsupervised forward of
      it and :meth:`child` is the visit it starts.
    * :meth:`fold` — a child subtree's states came back.  Sequential
      visits (``r > 0``) merge them before looking at the next link
      (lines 4-11); parallel visits (``r = 0``, lines 13-17 == Alg. 1)
      keep the state they fanned out with and pass the subtree states on
      to the nearest sequential ancestor.
    * :meth:`finish` — ship the local answer, close the span, return the
      states reported upstream (line 19).

    Time is always an argument, so the step never knows who schedules it:
    :func:`_process` (depth-first stack, analytic latency), the event
    queue of :mod:`repro.net.eventsim` (message timestamps, with or
    without fault supervision) or the arena's level-synchronous waves.
    """

    __slots__ = ("ctx", "handler", "peer", "received_state", "restriction",
                 "r", "initiator_id", "processes", "local_state", "gstate",
                 "links", "pending", "index", "upstream", "span")

    def __init__(self, ctx: QueryContext, handler: QueryHandler,
                 peer: PeerLike, received_state: Any, restriction: Region,
                 r: int, initiator_id: Hashable, now: int,
                 parent_span: int | None = None) -> None:
        self.ctx = ctx
        self.handler = handler
        self.peer = peer
        self.received_state = received_state
        self.restriction = restriction
        self.r = r
        self.initiator_id = initiator_id
        self.index = 0
        self.processes = ctx.begin_processing(peer.peer_id)
        if self.processes:
            self.local_state = handler.compute_local_state(
                peer.store, received_state)
        else:
            self.local_state = handler.neutral_local_state()
        self.gstate = handler.compute_global_state(received_state,
                                                   self.local_state)
        if ctx.sink.enabled:
            self.span = ctx.sink.begin_span(
                "process", peer.peer_id, now, parent=parent_span,
                region=repr(restriction), r=r, processes=self.processes,
                state_size=state_size(self.local_state))
        else:
            self.span = 0
        links = peer.links()
        self.links = links if isinstance(links, LinkTable) \
            else LinkTable(links)
        self.pending = _candidates(self.links, restriction, handler, r)
        if r > 0:
            #: Parallel-mode accumulator of subtree states; sequential
            #: visits fold children into ``local_state`` and leave it empty.
            self.upstream: list[Any] = []
        else:
            self.upstream = [self.local_state] if self.processes else []

    def next_forward(self) -> "tuple[PeerLike, Region] | None":
        """The next relevant link's target and sub-region, else None.

        Relevance is judged against the state as it stands now, so a
        sequential visit prunes with everything its earlier children
        reported.  A candidate is ``(link index, overlap, bound)``: with
        a handler's batched ``bound`` relevance is a float comparison
        against one cutoff, so the region of an overlap left None is
        built for forwarded links only.  No ``Link`` is built."""
        pending, handler = self.pending, self.handler
        cutoff = None
        while self.index < len(pending):
            i, sub, bound = pending[self.index]
            self.index += 1
            if bound is None:
                relevant = handler.is_link_relevant(
                    sub or self.links.region(i), self.gstate)
            else:
                if cutoff is None:
                    cutoff = handler.bound_cutoff(self.gstate)
                relevant = bound >= cutoff
            if relevant:
                return self.links.target(i), sub or self.links.region(i)
        return None

    def note_forward(self, target: PeerLike, now: int) -> None:
        """Account one plain forward to ``target`` (supervised forwards
        are accounted per transmission by their attempt instead)."""
        self.ctx.on_forward()
        if self.ctx.sink.enabled:
            self.ctx.sink.event("forward", now, span=self.span,
                                target=target.peer_id)

    @property
    def child_r(self) -> int:
        """The ripple parameter this visit forwards with."""
        return self.r - 1 if self.r > 0 else 0

    def child(self, target: PeerLike, sub: Region, now: int,
              via_span: int = 0) -> "_Visit":
        """The visit a forward of ``sub`` starts at ``target`` at ``now``,
        nested under ``via_span`` (a supervising attempt) or this span."""
        return _Visit(self.ctx, self.handler, target, self.gstate, sub,
                      self.child_r, self.initiator_id, now,
                      (via_span or self.span) or None)

    def fold(self, states: list[Any], now: int) -> None:
        """Take in the states a completed child subtree reported."""
        if self.r == 0:
            self.upstream.extend(states)
            return
        self.ctx.on_response(len(states))
        if self.ctx.sink.enabled:
            self.ctx.sink.event("response", now, span=self.span,
                                count=len(states))
        self.local_state = self.handler.update_local_state(
            [self.local_state, *states])
        self.gstate = self.handler.compute_global_state(
            self.received_state, self.local_state)

    def finish(self, now: int) -> list[Any]:
        """Ship the local answer; return the states reported upstream."""
        ctx = self.ctx
        if self.processes:
            answer = self.handler.compute_local_answer(self.peer.store,
                                                       self.local_state)
            if self.peer.peer_id == self.initiator_id:
                # The initiator's own qualifying tuples never cross the
                # network.
                ctx.collected_answers.append(answer)
            else:
                size = self.handler.answer_size(answer)
                ctx.on_answer(answer, size)
                if ctx.sink.enabled and size > 0:
                    ctx.sink.event("answer", now, span=self.span, size=size)
        if ctx.sink.enabled:
            ctx.sink.end_span(self.span, now,
                              state_size=state_size(self.local_state))
        return self.upstream if self.r == 0 else [self.local_state]


def _process(root: _Visit, arrival: int) -> int:
    """Drive ``root``'s subtree depth-first over an explicit work stack.

    The driver owns the schedule and the analytic cost model, nothing
    else: a sequential visit forwards after folding its earlier children
    and waits ``1 + child latency`` for each; parallel forwards all leave
    on arrival and the slowest dominates.  Returns the critical-path
    latency of the subtree (``root`` arrived at ``arrival``).
    """
    # One record per suspended visit: [visit, arrival time, latency so far].
    stack: list[list[Any]] = [[root, arrival, 0]]
    while True:
        visit, t0, latency = stack[-1]
        forward = visit.next_forward()
        if forward is not None:
            sent = t0 + latency if visit.r > 0 else t0
            visit.note_forward(forward[0], sent)
            stack.append([visit.child(*forward, sent + 1), sent + 1, 0])
            continue
        stack.pop()
        upstream = visit.finish(t0 + latency)
        if not stack:
            return latency
        parent = stack[-1]
        if parent[0].r > 0:
            parent[2] += 1 + latency
        else:
            parent[2] = max(parent[2], 1 + latency)
        parent[0].fold(upstream, parent[1] + parent[2])
