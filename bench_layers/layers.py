"""The traced run: per-layer metrics from the benchmark's side of each layer.

Spans sit outside the program, so finer attribution than "one span per
query" comes from a *ladder*: for the first :data:`LADDER_OPS` ops of a
workload the benchmark calls each lower layer's public function directly
on the same inputs (route, per-peer handler callbacks, link decisions,
every engine on the same unseeded query) and reports each rung, and for
the engines each rung's ratio over the recursive one.  Hooks the public
API already offers let a span land on an inner boundary without touching
the program: the seeded drivers' ``executor=`` parameter (seeding vs
ripple phase) and a ``QueryEngine`` subclass that spans ``run()``
(workload generation vs simulation).

End-to-end metrics are never taken from here; a traced run prints every
per-layer metric the benchmark declares, 0.0 for those a workload does not
measure (``spec.PER_LAYER`` says which workloads measure what).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from typing import Any, Callable, Sequence

import numpy as np

from repro import (CacheDirectory, DiversificationObjective, FaultPlan,
                   QueryEngine, QueryTrace, Rect,
                   ReplicaDirectory, RippleDiversifier, SkylineHandler,
                   TopKHandler, dominates, event_driven_ripple,
                   greedy_diversify, resilient_ripple, run_ripple)
from repro.common.geometry import contains_batch, mindist_batch
from repro.core.framework import execute
from repro.net import greedy_route
from repro.overlays import from_overlay, wavefront_execute
from repro.overlays.arena import prime_skyline_wave, prime_topk_wave
from repro.queries.drivers import run_seeded
from repro.queries.skyline import merge_skylines, skyline_of_array

from .runner import (Measurement, drift_between, one_pass, say, timed_setup)
from .spec import PER_LAYER
from .tracing import (Recorder, Span, seconds_of, self_time_by_name,
                      write_jsonl)
from .workloads import (ArenaWave, ChurnMutating, PassResult,
                        ServeSupervised, ServeZipfCached, SkylineStatic,
                        TopkStatic, Workload, build_midas, catalogue_rng,
                        make_workload, topk_seed_point, traffic_rng, weights)

__all__ = ["traced_metrics", "LADDER_OPS", "trace_path"]

#: Ops of a workload the handler/driver ladder replays.
LADDER_OPS = 32
#: Queries each engine rung runs, and repetitions per query (minimum kept).
RUNG_QUERIES = 2
RUNG_REPS = 2

Values = dict[str, float]


def trace_path(name: str, directory: str | None = None) -> str:
    """``trace-<workload>.jsonl`` under ``directory`` (default: ``out/``
    next to this file, which ``.gitignore`` names)."""
    out = directory or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"trace-{name}.jsonl")


def _median_us(seconds: Sequence[float]) -> float:
    return 1e6 * statistics.median(seconds) if seconds else 0.0


def _best_call(rec: Recorder, name: str, fn: Callable[[], Any],
               reps: int = 3) -> float:
    """Minimum host seconds over ``reps`` spanned calls of ``fn``."""
    return min(rec.call(name, None, fn)[1] for _ in range(reps))


# -- hooks on inner boundaries ------------------------------------------------

def _spanning_engine(rec: Recorder) -> type[QueryEngine]:
    """A ``QueryEngine`` whose ``run()`` is a span: the boundary between
    ``net.workload`` (draws, submissions, reduction) and the simulation."""

    class SpanningEngine(QueryEngine):
        def run(self) -> Any:
            out, _ = rec.call("net.scheduler.QueryEngine.run", None,
                              super().run)
            return out

    return SpanningEngine


def _spanning_executor(rec: Recorder, qid: int, seen: list[Any]
                       ) -> Callable[..., Any]:
    """An ``executor=`` for the seeded drivers that spans the ripple phase
    and remembers its context (for ``ctx.processed``)."""

    def executor(initiator: Any, handler: Any, r: int, **kwargs: Any) -> Any:
        out, seconds = rec.call("core.framework.execute", qid, execute,
                                initiator, handler, r, **kwargs)
        seen.append((seconds, kwargs["ctx"]))
        return out

    return executor


# -- set-up layers ------------------------------------------------------------

def _setup_layers(rec: Recorder) -> Values:
    out: Values = {}
    for metric, span in (
            ("data.synth.gen_s", "data.synth.synth_clustered"),
            ("overlays.midas.build_s", "overlays.midas.build"),
            ("overlays.skipgraph.build_s", "overlays.skipgraph.build"),
            ("overlays.arena_build.midas_arena_s",
             "overlays.arena_build.midas_arena")):
        seconds = seconds_of(rec.spans or [], span)
        if seconds:
            out[metric] = statistics.median(seconds)
    return out


def _midas_links(rec: Recorder, sizes: dict[str, int]) -> Values:
    """Link tables are built lazily per peer; time the first and second
    ``links()`` of every peer of a fresh network."""
    _, overlay = build_midas(Recorder(), **sizes)
    peers = overlay.peers()

    def all_links() -> None:
        for peer in peers:
            peer.links()

    _, cold = rec.call("overlays.midas.links(cold)", None, all_links)
    _, warm = rec.call("overlays.midas.links(warm)", None, all_links)
    return {"overlays.midas.links_cold_us_per_peer": 1e6 * cold / len(peers),
            "overlays.midas.links_warm_us_per_peer": 1e6 * warm / len(peers)}


# -- stores and geometry ------------------------------------------------------

def _store_probe(rec: Recorder, peers: Sequence[Any], dims: int) -> Values:
    rng = catalogue_rng(0x5702)
    picks = rng.choice(len(peers), size=min(64, len(peers)), replace=False)
    stores = [peers[int(i)].store for i in picks]
    stores = [s for s in stores if len(s)]
    fn = weights(rng, dims)
    miss = [rec.call("common.store.top_scoring(miss)", None, s.top_scoring,
                     fn, 10)[1] for s in stores]
    hit = [rec.call("common.store.top_scoring(hit)", None, s.top_scoring,
                    fn, 10)[1] for s in stores]
    return {"common.store.topscoring_miss_us": _median_us(miss),
            "common.store.topscoring_hit_us": _median_us(hit)}


def _memo_counts(peers: Sequence[Any]) -> dict[int, tuple[int, int]]:
    """Store-memo ``(hits, misses)`` per live store."""
    return {id(p.store): (p.store.cache_hits, p.store.cache_misses)
            for p in peers}


def _memo_hit_ratio(before: dict[int, tuple[int, int]],
                    after: dict[int, tuple[int, int]]) -> float:
    """Memo hit ratio over the stores alive at both ends of the pass."""
    hits = misses = 0
    for key, (h1, m1) in after.items():
        h0, m0 = before.get(key, (h1, m1))
        hits += h1 - h0
        misses += m1 - m0
    return hits / (hits + misses) if hits + misses else 0.0


def _geometry_probe(rec: Recorder, dims: int) -> Values:
    """Scalar and batch geometry on fixed seeded inputs."""
    rng = catalogue_rng(0x6E0)
    n, rows = 2000, 4096
    a = [tuple(row) for row in rng.random((n, dims)).tolist()]
    b = [tuple(row) for row in rng.random((n, dims)).tolist()]
    corners = (rng.random((n, dims)) * 0.5).tolist()
    rects = [Rect(tuple(lo), tuple(v + 0.4 for v in lo)) for lo in corners]
    others = rects[1:] + rects[:1]
    points = rng.random((rows, dims))
    box_lo = rng.random((rows, dims)) * 0.5
    box_hi = box_lo + 0.4
    query = tuple(rng.random(dims).tolist())

    def scalar_dominates() -> None:
        for p, q in zip(a, b):
            dominates(p, q)

    def scalar_intersection() -> None:
        for r, s in zip(rects, others):
            r.intersection(s)

    dom = _best_call(rec, "common.geometry.dominates x2000",
                     scalar_dominates)
    inter = _best_call(rec, "common.geometry.Rect.intersection x2000",
                       scalar_intersection)
    mind = _best_call(rec, "common.geometry.mindist_batch x4096",
                      lambda: mindist_batch(query, box_lo, box_hi))
    cont = _best_call(rec, "common.geometry.contains_batch x4096",
                      lambda: contains_batch(points, box_lo, box_hi))
    return {"common.geometry.dominates_us": 1e6 * dom / n,
            "common.geometry.intersection_us": 1e6 * inter / n,
            "common.geometry.mindist_batch_ns_per_row": 1e9 * mind / rows,
            "common.geometry.contains_batch_ns_per_row": 1e9 * cont / rows}


# -- handlers, routing, the seeded driver -------------------------------------

def _handler_ladder(rec: Recorder, workload: TopkStatic | SkylineStatic
                    ) -> Values:
    """Replay the first ops one layer down: route, per-peer callbacks on
    the route's peers, link decisions under the query's final state, and
    the seeded driver with its ripple phase spanned."""
    overlay = workload.overlay
    peers, domain = overlay.peers(), overlay.domain()
    topk = isinstance(workload, TopkStatic)
    module = "queries.topk" if topk else "queries.skyline"
    route_s: list[float] = []
    hops = local_peers = links = pruned = 0
    local_s = decide_s = driver_s = ripple_s = 0.0
    merge_s: list[float] = []
    for i, (pi, ti, r) in enumerate(workload.ops[:LADDER_OPS]):
        initiator = peers[pi]
        if topk:
            fn = workload.fns[ti]
            handler: Any = TopKHandler(fn, workload.k)
            seed_point = topk_seed_point(fn, domain)
        else:
            handler = SkylineHandler(workload.dims,
                                     constraint=workload.boxes[ti])
            seed_point = handler.origin
        with rec.span(f"ladder.{module}", i):
            (_, path), dt = rec.call("net.routing.greedy_route", i,
                                     greedy_route, initiator, seed_point)
            route_s.append(dt)
            hops += len(path) - 1
            # The seeded driver, its ripple phase spanned through the
            # public executor hook: what is left is routing + probing.
            seen: list[Any] = []
            result, dt = rec.call(
                "queries.drivers.run_seeded", i, run_seeded, initiator,
                handler, r, restriction=domain, seed_point=seed_point,
                executor=_spanning_executor(rec, i, seen))
            driver_s += dt
            ripple_s += seen[-1][0]
            # Per-peer callbacks, on the peers the route passes.
            state = handler.initial_state()
            for peer in path:
                local, d1 = rec.call(f"{module}.compute_local_state", i,
                                     handler.compute_local_state,
                                     peer.store, state)
                state, d2 = rec.call(f"{module}.compute_global_state", i,
                                     handler.compute_global_state, state,
                                     local)
                _, d3 = rec.call(f"{module}.compute_local_answer", i,
                                 handler.compute_local_answer, peer.store,
                                 local)
                local_s += d1 + d2 + d3
                local_peers += 1
            # Link decisions under the state the whole query certified.
            if topk:
                final = handler.update_local_state(
                    [state, dataclasses.replace(
                        state, scores=tuple(s for s, _ in result.answer))])
            else:
                final = tuple(result.answer)
                for peer in path:
                    mine = handler.compute_local_state(peer.store, ())
                    merge_s.append(rec.call(
                        "queries.skyline.merge_skylines", i, merge_skylines,
                        final, mine)[1])

            def decide(peer: Any) -> int:
                cut = 0
                for link in peer.links():
                    if not handler.is_link_relevant(link.region, final):
                        cut += 1
                    handler.link_priority(link.region)
                return cut

            for peer in path:
                cut, dt = rec.call(f"{module}.link_decisions", i, decide,
                                   peer)
                decide_s += dt
                pruned += cut
                links += len(peer.links())
    ops = min(LADDER_OPS, len(workload.ops))
    out = {
        "net.routing.greedy_route_us": _median_us(route_s),
        "net.routing.route_hops": hops / ops,
        "queries.drivers.run_seeded_ms": 1e3 * driver_s / ops,
        "queries.drivers.seed_share": (driver_s - ripple_s) / driver_s,
        f"{module}.handler_local_us_per_peer": 1e6 * local_s / local_peers,
        f"{module}.link_decision_us_per_link": 1e6 * decide_s / max(1, links),
        f"{module}.links_pruned_ratio": pruned / max(1, links),
    }
    if not topk:
        out["queries.skyline.merge_skylines_us"] = _median_us(merge_s)
        fixed = catalogue_rng(0x5CA1).random((10_000, 4))
        out["queries.skyline.skyline_of_array_ms"] = 1e3 * _best_call(
            rec, "queries.skyline.skyline_of_array 10000x4",
            lambda: skyline_of_array(fixed))
    return out


def _diversify_probe(rec: Recorder, workload: TopkStatic) -> Values:
    """k = 6 greedy diversification for three seeded objectives."""
    overlay = workload.overlay
    rng = traffic_rng(workload.seed, 0xD1F)
    sub_s: list[float] = []

    class SpannedDiversifier:
        def __init__(self, inner: RippleDiversifier) -> None:
            self.inner = inner

        def solve_single(self, *args: Any, **kwargs: Any) -> Any:
            out, dt = rec.call("queries.diversify.solve_single", None,
                               self.inner.solve_single, *args, **kwargs)
            sub_s.append(dt)
            return out

    greedy_s = []
    for j in range(3):
        objective = DiversificationObjective(
            rng.random(overlay.dims).tolist(), 0.5)
        engine = SpannedDiversifier(RippleDiversifier(
            overlay, overlay.peers()[int(rng.integers(len(overlay)))], r=0))
        _, dt = rec.call("queries.diversify.greedy_diversify", j,
                         greedy_diversify, engine, objective, 6)
        greedy_s.append(dt)
    return {"queries.diversify.subquery_ms": 1e3 * statistics.median(sub_s),
            "queries.diversify.greedy_s": statistics.median(greedy_s)}


# -- engine rungs -------------------------------------------------------------

def _engine_rungs(rec: Recorder, workload: TopkStatic | SkylineStatic
                  ) -> Values:
    """The same unseeded query through every engine, ``r`` in {0, 2}.

    Every rung must return the recursive engine's answer and processed
    count — the ladder is only meaningful between equal computations.
    """
    overlay = workload.overlay
    peers, domain = overlay.peers(), overlay.domain()
    mirror, mirror_s = rec.call("overlays.arena_build.from_overlay", None,
                                from_overlay, overlay)
    index_of = {p.peer_id: i for i, p in enumerate(peers)}
    out: Values = {"overlays.arena_build.from_overlay_s": mirror_s}
    queries = []
    for pi, ti, _ in workload.ops[:RUNG_QUERIES]:
        handler: Any = TopKHandler(workload.fns[ti], workload.k) \
            if isinstance(workload, TopkStatic) \
            else SkylineHandler(workload.dims, constraint=workload.boxes[ti])
        queries.append((peers[pi], handler))

    def scheduled(initiator: Any, handler: Any, r: int) -> Any:
        engine = QueryEngine(capacity=1)
        job = engine.submit(initiator, handler, r, restriction=domain)
        return engine.run()[job]

    rungs: list[tuple[str, str, Callable[[Any, Any, int], Any]]] = [
        ("core.framework", "", lambda p, h, r: run_ripple(
            p, h, r, restriction=domain)),
        ("net.eventsim", "", lambda p, h, r: event_driven_ripple(
            p, h, r, restriction=domain)),
        ("net.faults", "", lambda p, h, r: resilient_ripple(
            p, h, r, restriction=domain, faults=FaultPlan.none())),
        ("net.scheduler", "", scheduled),
        ("overlays.arena", "mirror_", lambda p, h, r: run_ripple(
            mirror.peers()[index_of[p.peer_id]], h, r,
            restriction=mirror.domain(), executor=wavefront_execute)),
    ]
    traced = untraced = 0.0
    spans = 0
    for r in (0, 2):
        wall: dict[str, float] = {}
        visits = 0
        for q, (initiator, handler) in enumerate(queries):
            reference = None
            for module, _, run in rungs:
                best = float("inf")
                for _ in range(RUNG_REPS):
                    result, dt = rec.call(f"rung.{module}.r{r}", q, run,
                                          initiator, handler, r)
                    best = min(best, dt)
                if reference is None:
                    reference = result
                    visits += result.stats.processed
                elif (result.answer != reference.answer or
                      result.stats.processed != reference.stats.processed):
                    raise RuntimeError(
                        f"engine rung {module} r={r} disagrees with "
                        f"run_ripple on ladder query {q}")
                wall[module] = wall.get(module, 0.0) + best
            # Recording sink vs none, on the recursive rung.
            best = float("inf")
            for _ in range(RUNG_REPS):
                sink = QueryTrace()
                _, dt = rec.call(f"rung.core.framework+QueryTrace.r{r}", q,
                                 run_ripple, initiator, handler, r,
                                 restriction=domain, sink=sink)
                best = min(best, dt)
            spans += len(sink.spans)
            traced += best
        untraced += wall["core.framework"]
        for module, prefix, _ in rungs:
            out[f"{module}.{prefix}us_per_visit_r{r}"] = \
                1e6 * wall[module] / visits
            if module != "core.framework":
                out[f"{module}.{prefix}overhead_vs_recursive_r{r}"] = \
                    wall[module] / wall["core.framework"]
        out[f"net.scheduler.overhead_vs_event_r{r}"] = \
            wall["net.scheduler"] / wall["net.eventsim"]
    out["obs.trace.recording_overhead"] = traced / untraced
    out["obs.trace.spans_per_query"] = spans / (2 * len(queries))
    return out


# -- serving layers -----------------------------------------------------------

def _serving_layers(spans: Sequence[Span], counters: Values,
                    phases: Sequence[str]) -> Values:
    """``net.scheduler`` / ``net.eventsim`` from the traced pass: the
    serving call's span with ``QueryEngine.run`` nested inside it."""
    runs = seconds_of(spans, "net.scheduler.QueryEngine.run")
    messages = sum(counters[p + "messages_total"] for p in phases)
    return {
        "net.scheduler.run_ms": 1e3 * sum(runs),
        "net.eventsim.us_per_message": 1e6 * sum(runs) / max(1.0, messages),
        "net.eventsim.queue_delay_per_query": sum(
            counters[p + "queue_delay_per_query"]
            for p in phases) / len(phases),
        "net.eventsim.max_saturation": max(
            counters[p + "max_saturation"] for p in phases),
        "net.scheduler.shed_share": max(
            counters[p + "shed_share"] for p in phases),
        "net.scheduler.turnaround_p50": counters[phases[0] + "turnaround_p50"],
        "net.scheduler.turnaround_p99": counters[phases[0] + "turnaround_p99"],
    }


def _variant_wall(workload: Workload, **sizes: Any) -> float:
    """Host seconds of one pass of a differently configured twin."""
    twin = make_workload(workload.name, workload.seed, **sizes)
    twin.setup(Recorder())
    twin.begin_pass()
    return sum(twin.run_pass(Recorder()).op_seconds)


def _fault_layers(rec: Recorder, workload: ServeSupervised, wall: float,
                  counters: Values) -> Values:
    """Supervision cost: the same arrivals with a zero-fault plan and with
    no plan at all; counters of the faulty pass."""
    sizes = dict(peers=workload.peers, tuples=workload.tuples,
                 queries=workload.spec.queries, rate=workload.spec.rate,
                 k=workload.spec.k)
    off = _variant_wall(workload, faults="off", **sizes)
    none = _variant_wall(workload, faults="none", **sizes)
    _, refresh = rec.call("overlays.replication.ReplicaDirectory", None,
                          ReplicaDirectory, workload.overlay, 2)
    own = self_time_by_name(_last_pass(rec, "net.workload.run_workload"))
    out = {"net.workload.generate_ms":
           own["net.workload.run_workload"][1] / 1e6,
           "net.faults.supervision_overhead": wall / off,
           "net.faults.zero_fault_overhead": none / off,
           "overlays.replication.refresh_ms": 1e3 * refresh}
    for key in ("retries_per_query", "timeouts_per_query",
                "reroutes_per_query", "acks_per_query", "regions_recovered",
                "replica_reads", "completeness_min"):
        out["net.faults." + key] = counters[key]
    return out


# -- result cache -------------------------------------------------------------

def _cache_counters(counters: Values, phases: Sequence[str]) -> Values:
    total = {key: sum(counters[p + "cache." + key] for p in phases)
             for key in ("hits", "semantic_hits", "misses", "invalidations",
                         "messages_saved")}
    lookups = total["hits"] + total["semantic_hits"] + total["misses"]
    return {
        "net.resultcache.hit_ratio": total["hits"] / max(1.0, lookups),
        "net.resultcache.semantic_hit_ratio":
            total["semantic_hits"] / max(1.0, lookups),
        "net.resultcache.invalidations": total["invalidations"],
        "net.resultcache.messages_saved": total["messages_saved"],
    }


def _cache_probe(rec: Recorder, overlay: Any, seed: int) -> Values:
    """Lookup tiers and store cost on a scratch directory holding sixteen
    top-10 entries."""
    rng = traffic_rng(seed, 0xCAC4E)
    peers, domain = overlay.peers(), overlay.domain()
    scratch = CacheDirectory(overlay)
    fns = [weights(rng, overlay.dims)
           for _ in range(16)]
    store_s = []
    for i, fn in enumerate(fns):
        handler = TopKHandler(fn, 10)
        seen: list[Any] = []
        result = run_seeded(peers[int(rng.integers(len(peers)))], handler, 0,
                            restriction=domain,
                            seed_point=topk_seed_point(fn, domain),
                            executor=_spanning_executor(Recorder(), i, seen))
        processed = set(seen[-1][1].processed)
        store_s.append(rec.call("net.resultcache.store", i, scratch.store,
                                handler, domain, result, processed)[1])

    def lookups(label: str, handlers: Sequence[Any], kind: str) -> float:
        seconds = []
        for i, handler in enumerate(handlers):
            found, dt = rec.call(f"net.resultcache.lookup({label})", i,
                                 scratch.lookup, handler, domain)
            if found.kind != kind:
                raise RuntimeError(f"cache probe expected a {label} "
                                   f"lookup, got {found.kind!r}")
            seconds.append(dt)
        return _median_us(seconds)

    fresh = [TopKHandler(weights(rng, overlay.dims),
                         10) for _ in range(16)]
    return {
        "net.resultcache.store_us": _median_us(store_s),
        "net.resultcache.lookup_hit_us": lookups(
            "hit", [TopKHandler(fn, 10) for fn in fns], "exact"),
        "net.resultcache.lookup_semantic_us": lookups(
            "semantic", [TopKHandler(fn, 4) for fn in fns], "exact"),
        "net.resultcache.lookup_miss_us": lookups("miss", fresh, "miss"),
    }


def _uncached_speedup(workload: ServeZipfCached, cached_wall: float) -> float:
    """Host speed-up of phase A from the cache, extrapolated from one
    uncached request per template (all of phase A uncached would take
    minutes): uncached host time per arrival over cached."""
    pool = len(workload.ranked)
    twin = ServeZipfCached(
        workload.seed, cache=False, queries=pool, dims=workload.dims,
        topk_templates=len(workload.fns),
        skyline_templates=len(workload.boxes), ks=workload.ks,
        **{k: v for k, v in workload.sizes.items() if k != "dims"})
    twin.setup(Recorder())
    _, wall = Recorder().call("", None, twin.serve, twin.engines[0],
                              twin.ks[0])
    return (wall / pool) / (cached_wall / len(workload.arrivals))


# -- arena --------------------------------------------------------------------

def _arena_probe(rec: Recorder, workload: ArenaWave,
                 wave_seconds: Sequence[float], wave_visits: int) -> Values:
    """Wave kernels on cold stores, and the first ops again through the
    scalar engine on a rebuilt (cold) arena."""
    rng = catalogue_rng(0xA2E7A)
    workload.setup(Recorder())
    arena, domain = workload.arena, workload.arena.domain()
    picks = rng.choice(len(arena), size=min(256, len(arena)), replace=False)
    stores = [arena.peer(int(i)).store for i in picks]
    fn = weights(rng, workload.dims)
    _, topk_s = rec.call("overlays.arena.prime_topk_wave", None,
                         prime_topk_wave, fn, stores)
    _, sky_s = rec.call("overlays.arena.prime_skyline_wave", None,
                        prime_skyline_wave, None, stores)
    workload.setup(Recorder())
    arena = workload.arena
    scalar = 0.0
    ops = workload.ops[:LADDER_OPS]
    for i, (kind, pi, what) in enumerate(ops):
        handler: Any = TopKHandler(what, workload.k) if kind == "topk" \
            else SkylineHandler(workload.dims, constraint=what)
        seed_point = handler.origin if kind == "skyline" \
            else topk_seed_point(what, domain)
        _, dt = rec.call("queries.drivers.run_seeded(scalar)", i, run_seeded,
                         arena.peer(pi), handler, 0, restriction=domain,
                         seed_point=seed_point)
        scalar += dt
    return {
        "overlays.arena.nbytes_mib": arena.nbytes() / 2 ** 20,
        "overlays.arena.prime_topk_wave_us_per_store":
            1e6 * topk_s / len(stores),
        "overlays.arena.prime_skyline_wave_us_per_store":
            1e6 * sky_s / len(stores),
        "overlays.arena.wavefront_us_per_visit":
            1e6 * sum(wave_seconds) / max(1, wave_visits),
        "overlays.arena.wavefront_vs_scalar":
            scalar / sum(wave_seconds[:len(ops)]),
    }


# -- the traced run -----------------------------------------------------------

MemoCounts = dict[int, tuple[int, int]]


@dataclasses.dataclass
class _Traced:
    """What the per-workload layer functions read: the recorder, and the
    last traced pass with the store-memo counters around it."""

    rec: Recorder
    result: PassResult
    memo_before: MemoCounts
    memo_after: MemoCounts

    def kind_seconds(self, kind: str) -> list[float]:
        return [dt for k, dt in zip(self.result.op_kinds,
                                    self.result.op_seconds) if k == kind]

    def memo_hit_ratio(self) -> float:
        return _memo_hit_ratio(self.memo_before, self.memo_after)


def _traced_passes(workload: Workload, rec: Recorder, m: Measurement
                   ) -> tuple[float, _Traced]:
    """Two untraced and two traced passes, alternating; returns the trace
    overhead share (difference of the minima over the untraced minimum)
    and the last traced pass."""
    plain = Recorder()
    walls: dict[bool, list[float]] = {False: [], True: []}
    reference = None
    if workload.warm:
        workload.begin_pass()
        reference, _ = one_pass(workload, plain)
    last = None
    for traced in (False, True, False, True):
        if workload.rebuild_per_pass:
            timed_setup(workload, m.setup_seconds, rec if traced else None)
        workload.begin_pass()
        overlay = getattr(workload, "overlay", None) if traced else None
        before = _memo_counts(overlay.peers()) if overlay else {}
        result, wall = one_pass(workload, rec if traced else plain)
        walls[traced].append(wall)
        if reference is None:
            reference = result
        elif m.drift is None:
            m.drift = drift_between(reference, result,
                                    f"pass {len(m.passes)}")
        m.passes.append(result)
        m.pass_walls.append(wall)
        if traced:
            after = _memo_counts(overlay.peers()) if overlay else {}
            last = _Traced(rec, result, before, after)
    m.passes[0].queries = reference.queries
    assert last is not None
    share = (min(walls[True]) - min(walls[False])) / min(walls[False])
    return share, last


def _layers_topk_static(w: TopkStatic, t: _Traced) -> Values:
    dims = w.sizes["dims"]
    return {
        **_midas_links(t.rec, w.sizes), **_geometry_probe(t.rec, dims),
        **_handler_ladder(t.rec, w), **_engine_rungs(t.rec, w),
        **_store_probe(t.rec, w.overlay.peers(), dims),
        "common.store.cache_hit_ratio": t.memo_hit_ratio(),
        **_diversify_probe(t.rec, w)}


def _layers_skyline_static(w: SkylineStatic, t: _Traced) -> Values:
    return {
        **_midas_links(t.rec, w.sizes),
        **_geometry_probe(t.rec, w.sizes["dims"]),
        **_handler_ladder(t.rec, w), **_engine_rungs(t.rec, w)}


def _layers_serve_supervised(w: ServeSupervised, t: _Traced) -> Values:
    counters = t.result.counters
    return {
        **_serving_layers(_last_pass(t.rec, "net.workload.run_workload"),
                          counters, [""]),
        **_fault_layers(t.rec, w, sum(t.result.op_seconds), counters)}


def _layers_serve_zipf_cached(w: ServeZipfCached, t: _Traced) -> Values:
    counters, phases = t.result.counters, ["A.", "B."]
    decisions = sum(counters[p + "decisions"] for p in phases)
    return {
        **_midas_links(t.rec, w.sizes),
        **_serving_layers(
            _last_pass(t.rec, "net.scheduler.QueryEngine.submit_at+run"),
            counters, phases),
        **_cache_counters(counters, phases),
        **_cache_probe(t.rec, w.overlay, w.seed),
        "net.resultcache.host_speedup":
            _uncached_speedup(w, t.result.op_seconds[0]),
        "net.adaptive.r0_share": sum(
            counters[p + "r0_decisions"] for p in phases) / max(1.0,
                                                                decisions)}


def _layers_churn_mutating(w: ChurnMutating, t: _Traced) -> Values:
    return {
        **_midas_links(t.rec, w.sizes),
        "overlays.midas.us_per_join": _median_us(t.kind_seconds("join")),
        "overlays.midas.us_per_leave": _median_us(t.kind_seconds("leave")),
        "common.store.insert_us": _median_us(t.kind_seconds("insert")),
        "common.store.cache_hit_ratio": t.memo_hit_ratio(),
        **_store_probe(t.rec, w.overlay.peers(), w.dims),
        **_cache_counters(t.result.counters, [""]),
        **_cache_probe(t.rec, w.overlay, w.seed)}


def _layers_arena_wave(w: ArenaWave, t: _Traced) -> Values:
    return {
        **_store_probe(t.rec, w.arena.peers(), w.dims),
        **_arena_probe(t.rec, w, t.result.op_seconds,
                       sum(q.sim[1] for q in t.result.queries))}


_LAYERS: dict[str, Callable[[Any, _Traced], Values]] = {
    "topk_static": _layers_topk_static,
    "skyline_static": _layers_skyline_static,
    "serve_supervised": _layers_serve_supervised,
    "serve_zipf_cached": _layers_serve_zipf_cached,
    "churn_mutating": _layers_churn_mutating,
    "arena_wave": _layers_arena_wave,
}


def traced_metrics(workload: Workload, trace_dir: str | None = None
                   ) -> tuple[Measurement, dict[str, tuple[float, str, int]]]:
    """Run the traced protocol for ``workload``; every declared per-layer
    metric comes back as ``(value, unit, measured)``, 0.0 where this
    workload does not measure it.  The traced protocol is a fixed amount
    of work (four passes, then the probes), whatever ``--seconds`` says.
    """
    rec = Recorder(trace=True)
    if isinstance(workload, (ServeSupervised, ServeZipfCached)):
        workload.engine_class = _spanning_engine(rec)
    m = Measurement(workload)
    timed_setup(workload, m.setup_seconds, rec)
    share, traced = _traced_passes(workload, rec, m)
    values: Values = {"bench_layers.trace_overhead_share": share,
                      **_setup_layers(rec),
                      **_LAYERS[workload.name](workload, traced)}
    spans = rec.spans or []
    path = trace_path(workload.name, trace_dir)
    write_jsonl(path, spans)
    say(f"  wrote {len(spans)} spans to {os.path.relpath(path)}")
    for name, (calls, own_ns) in self_time_by_name(spans).items():
        say(f"  self {own_ns / 1e6:>11.3f} ms  calls {calls:<6} {name}")
    declared = {spec.name for spec in PER_LAYER
                if workload.name in spec.measured_on}
    if set(values) != declared:
        raise RuntimeError(
            f"{workload.name} measured {sorted(set(values) - declared)} "
            f"beyond, and not {sorted(declared - set(values))} of, what "
            "spec.PER_LAYER declares for it")
    return m, {spec.name: (float(values.get(spec.name, 0.0)), spec.unit,
                           int(spec.name in values)) for spec in PER_LAYER}


def _last_pass(rec: Recorder, root: str) -> list[Span]:
    """The last traced pass's ``root`` spans and what nests directly under
    them (two traced passes ran)."""
    spans = rec.spans or []
    roots = [s for s in spans if s.name == root]
    keep = {s.id for s in roots[len(roots) // 2:]}
    return [s for s in spans if s.id in keep or s.parent in keep]
