"""Seeded query drivers: route first, then ripple.

A rank query started cold at an arbitrary peer cannot prune anything until
its state certifies enough tuples (Algorithm 8's ``m < k`` clause), so the
parallel extreme degenerates to flooding on sparse networks.  Every
distributed rank-query system this paper builds on avoids that by starting
work where the answer lives: SSP "starts only at the peer responsible for
the region containing the origin of the data space", DSL roots its
multicast hierarchy at the origin-corner peer, and the Section 5.2 MIDAS
optimization aims links at boundary peers for the same reason.

The drivers here reconstruct that behaviour for RIPPLE (see DESIGN.md,
"Substitutions"): the initiator first routes an O(log n) lookup toward a
query-specific *seed point* (the maximizer of the scoring function, the
domain origin for skylines).  Peers along the route piggyback their local
states and candidate tuples onto the lookup, so the ripple phase starts at
the seed peer with a warm global state and prunes from its first hop.
Routing hops count toward latency; routing peers process the query and
count toward congestion.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..common.geometry import Point
from ..core.framework import LinkTable, PeerLike, execute
from ..core.handler import QueryHandler
from ..core.regions import Region
from ..net.context import QueryContext, QueryResult, QueryStats
from ..net.routing import greedy_route
from ..obs.trace import TraceSink, state_size

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from ..net.resultcache import CacheDirectory

__all__ = ["ExecutorFn", "run_seeded"]

#: The ripple-phase engine contract: anything signature-compatible with
#: :func:`repro.core.framework.execute`.  The batched wavefront engine
#: (:func:`repro.overlays.arena.wavefront_execute`) is the in-repo
#: alternative implementation.
ExecutorFn = Callable[..., Any]

#: Upper bound on best-first probe visits; a safety valve, never the
#: stopping rule in practice (the handler's ``seed_satisfied`` is).
_PROBE_BUDGET = 256

#: The probe stops after this many consecutive visits without improving
#: the handler's ``probe_score`` (once ``seed_satisfied`` holds).
_PROBE_PATIENCE = 5


def run_seeded(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int,
    *,
    restriction: Region,
    seed_point: Sequence[float] | Point,
    strict: bool = True,
    initial_state=None,
    sink: TraceSink | None = None,
    executor: ExecutorFn | None = None,
    cache: "CacheDirectory | None" = None,
) -> QueryResult:
    """Route to the peer owning ``seed_point``, then ripple from there.

    ``executor`` swaps the ripple-phase engine (default
    :func:`~repro.core.framework.execute`); routing and probing are
    always scalar — they touch O(log n) peers.

    Every peer on the route contributes its local state to the query's
    global state and ships its local candidates to the initiator, exactly
    as a processed peer would; the ripple phase then starts at the seed
    peer with that warm state.  Routed-through peers are marked processed,
    so the main phase treats them as already-visited (they may legally be
    reached again, contributing nothing twice).

    With a ``cache`` attached the drive consults it first: an exact hit
    returns the remembered answer with zero-cost stats (no messages, no
    peers touched), a semantic hit seeds the initial global state so
    links prune before the first hop, and a completed miss is stored
    back keyed on the peers it actually processed.  Warm answers are
    bit-identical to cold ones (see :mod:`repro.net.resultcache`).

    With a trace ``sink`` attached, the whole drive records under one
    ``query`` root span: routing and probing emit ``process`` spans at
    hop-accurate virtual times, so the trace's critical path spans the
    route, the probe, and the ripple phase end to end.
    """
    seeded_state = None
    if cache is not None:
        found = cache.consult(handler, restriction, sink, 0,
                              initiator.peer_id, {"r": r}, {})
        if found.is_exact:
            stats = QueryStats()
            if sink is not None and sink.enabled:
                sink.on_stats(stats)
            return QueryResult(found.answer, stats)
        if initial_state is None:
            seeded_state = found.state
    seed_peer, path = greedy_route(initiator, seed_point)
    ctx = QueryContext(strict=strict)
    if sink is not None:
        ctx.sink = sink
    if initial_state is None:
        state = handler.initial_state() if seeded_state is None \
            else seeded_state
    else:
        state = initial_state
    query_span = 0
    if ctx.sink.enabled:
        query_span = ctx.sink.begin_span(
            "query", initiator.peer_id, 0, region=repr(restriction), r=r,
            seed_point=tuple(float(v) for v in seed_point))
        if cache is not None:
            cache.trace_run(ctx.sink, query_span, 0, seeded_state)
    for hop, peer in enumerate(path[:-1]):
        state, _ = _probe_peer(ctx, handler, peer, state, initiator.peer_id,
                               t=hop, parent_span=query_span)
        ctx.on_forward()
        if ctx.sink.enabled:
            ctx.sink.event("forward", hop, span=query_span,
                           target=path[hop + 1].peer_id)
    base_latency = len(path) - 1
    state, probe_hops = _best_first_probe(
        ctx, handler, seed_peer, state, initiator.peer_id,
        base_t=base_latency, parent_span=query_span)
    engine = executor if executor is not None else execute
    result = engine(seed_peer, handler, r, restriction=restriction, ctx=ctx,
                    initial_state=state,
                    base_latency=base_latency + probe_hops,
                    answers_to=initiator.peer_id,
                    parent_span=query_span or None)
    if ctx.sink.enabled:
        ctx.sink.end_span(query_span, result.stats.latency)
    if cache is not None:
        cache.store(handler, restriction, result, ctx.processed)
    return result


def _probe_peer(ctx: QueryContext, handler: QueryHandler, peer: PeerLike,
                state, initiator_id, *, t: int = 0,
                parent_span: int | None = None) -> tuple[object, object]:
    """Process one peer during seeding.

    Returns the enriched global state plus the peer's own local state.
    ``t`` is the hop-accurate virtual time the lookup reaches the peer.
    """
    if not ctx.begin_processing(peer.peer_id):
        return state, handler.neutral_local_state()
    ctx.revisitable.add(peer.peer_id)
    local = handler.compute_local_state(peer.store, state)
    state = handler.compute_global_state(state, local)
    span = 0
    if ctx.sink.enabled:
        span = ctx.sink.begin_span("process", peer.peer_id, t,
                                   parent=parent_span or None,
                                   phase="seeding", processes=True,
                                   state_size=state_size(local))
    answer = handler.compute_local_answer(peer.store, local)
    if peer.peer_id == initiator_id:
        ctx.collected_answers.append(answer)
    else:
        size = handler.answer_size(answer)
        ctx.on_answer(answer, size)
        if ctx.sink.enabled and size > 0:
            ctx.sink.event("answer", t, span=span, size=size)
    if ctx.sink.enabled:
        ctx.sink.end_span(span, t)
    return state, local


def _best_first_probe(ctx: QueryContext, handler: QueryHandler,
                      seed_peer: PeerLike, state, initiator_id, *,
                      base_t: int = 0, parent_span: int | None = None
                      ) -> tuple[object, int]:
    """Sequentially visit the most promising regions around the seed.

    A short branch-and-bound walk: pop the best-priority link region seen
    so far, process its peer, push that peer's links, and stop once the
    states *gathered by the probe itself* satisfy the handler
    (``seed_satisfied``).  Judging saturation on the probe's own harvest —
    not on whatever the routing path happened to contribute — matters:
    the probe chases the best regions of the domain, so its harvest
    approximates the true answer's scores, giving the parallel extreme
    (r = 0) a pruning-grade threshold before it fans out.  With
    ``seed_satisfied`` returning True immediately (the default) the probe
    degenerates to processing the seed peer only.
    """
    tables = itertools.count()
    #: One entry per pushed link table with links left to pop: (priority
    #: of its next link, push order, rank, (table's unprocessed link
    #: indexes best first, their priorities, f+ or None, link table)).
    #: Popping an entry pushes the table's next link, so links leave in
    #: (priority, push order, table order): the order of a heap holding
    #: every link, without pushing them all.
    frontier: list[tuple[float, int, int, tuple[Any, ...]]] = []

    def push_links(peer: PeerLike) -> None:
        links = peer.links()
        if not isinstance(links, LinkTable):
            links = LinkTable(links)
        if not len(links):
            return
        fplus = links.link_bounds(handler)
        bounds = [None] * len(links) if fplus is None else fplus.tolist()
        priority = {i: handler.link_priority(links.region(i)) if bound is None
                    else -bound for i, (peer_id, bound) in enumerate(
                        zip(links.peer_ids, bounds))
                    if peer_id not in ctx.processed}
        if priority:
            ranked = sorted(priority, key=priority.__getitem__)
            heapq.heappush(frontier, (priority[ranked[0]], next(tables), 0,
                                      (ranked, priority, bounds, links)))

    state, gathered = _probe_peer(ctx, handler, seed_peer, state,
                                  initiator_id, t=base_t,
                                  parent_span=parent_span)
    hops = 0
    stale = 0
    push_links(seed_peer)
    while frontier and hops < _PROBE_BUDGET:
        if stale >= _PROBE_PATIENCE and handler.seed_satisfied(gathered):
            break
        _, order, rank, table = heapq.heappop(frontier)
        ranked, priority, bounds, links = table
        i = ranked[rank]
        if rank + 1 < len(ranked):
            heapq.heappush(frontier, (priority[ranked[rank + 1]], order,
                                      rank + 1, table))
        if links.peer_ids[i] in ctx.processed:
            continue
        if not (handler.is_link_relevant(links.region(i), state)
                if bounds[i] is None
                else bounds[i] >= handler.bound_cutoff(state)):
            continue
        peer = links.target(i)
        ctx.on_forward()
        if ctx.sink.enabled:
            ctx.sink.event("forward", base_t + hops, span=parent_span or 0,
                           target=peer.peer_id)
        hops += 1
        before = handler.probe_score(gathered)
        state, local = _probe_peer(ctx, handler, peer, state, initiator_id,
                                   t=base_t + hops, parent_span=parent_span)
        gathered = handler.update_local_state((gathered, local))
        stale = stale + 1 if handler.probe_score(gathered) <= before else 0
        push_links(peer)
    return state, hops
