"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is generated from (and
self-tested against) these tables.  ``kind`` says whether a number is
``host`` time/memory of this machine or ``sim`` — a simulated quantity
that is exact for a given seed; the JSON contract has no field for it,
so it lives here and in the README.
"""

from __future__ import annotations

from dataclasses import dataclass

from .workloads import WORKLOADS

__all__ = ["EndToEnd", "PerLayer", "END_TO_END", "PER_LAYER", "RUN_SECONDS",
           "DEFAULT_SEED", "COMMAND", "PATHS", "benchmark_json"]

COMMAND = ["python3", "-m", "bench_layers"]
PATHS = ["bench_layers"]
#: Host seconds of timed passes per run.  The driver's 4 + 22 x 6 runs
#: must fit 3420 s, i.e. about 25 s each including set-up and checking.
RUN_SECONDS = 10
DEFAULT_SEED = 20140324


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    kind: str        # "host" | "sim"
    better: str      # "lower" | "higher"
    #: Share of the parent's median it may worsen by in the driver's
    #: gate, where runs differ in seed and share a noisy host.
    bound: float
    #: The same for ``compare`` between two runs of *one* seed (ISSUE.md's
    #: bounds); ``sim`` metrics must then be equal, hence 0.
    same_seed_bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: Workloads whose traced run measures it (0.0 is printed elsewhere,
    #: because the contract wants every name in every traced run).
    measured_on: tuple[str, ...]


_SIM_DEF = "mean over the pass's verified queries of QueryStats."

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25, 0.15,
             "data generation + overlay/arena build + replica/fault-plan/"
             "cache/engine construction; median over the run's builds"),
    EndToEnd("queries_per_s", "1/s", "host", "higher", 0.25, 0.08,
             "verified answers per host second: answers / sum of per-op "
             "minima over passes, mutation ops included in the time"),
    EndToEnd("query_ms_p50", "ms", "host", "lower", 0.25, 0.08,
             "median per-query host time of the workload's primary query "
             "kind (per-op minima; serve_*: run wall / arrivals per phase)"),
    EndToEnd("query_ms_tail", "ms", "host", "lower", 0.25, 0.10,
             "tail of the same sample: the workload's tail percentile (p95 "
             "on topk_static and arena_wave, else p90), the maximum below "
             "100 samples"),
    EndToEnd("peak_rss_mib", "MiB", "host", "lower", 0.15, 0.10,
             "ru_maxrss of the workload's process"),
    EndToEnd("hops_per_query", "hops", "sim", "lower", 0.25, 0.0,
             _SIM_DEF + "latency (the paper's latency)"),
    EndToEnd("peers_per_query", "peers", "sim", "lower", 0.20, 0.0,
             _SIM_DEF + "processed (the paper's congestion)"),
    EndToEnd("messages_per_query", "msgs", "sim", "lower", 0.20, 0.0,
             _SIM_DEF + "total_messages (+ ack_messages under a fault "
             "plan)"),
    EndToEnd("tuples_per_query", "tuples", "sim", "lower", 0.20, 0.0,
             _SIM_DEF + "tuples_shipped"),
)

_T, _S, _F, _Z, _C, _A = (
    "topk_static", "skyline_static", "serve_supervised",
    "serve_zipf_cached", "churn_mutating", "arena_wave")
_MIDAS = (_T, _S, _Z, _C)


def _rungs() -> list[PerLayer]:
    out = []
    for module, prefix in (("core.framework", ""), ("net.eventsim", ""),
                           ("net.faults", ""), ("net.scheduler", ""),
                           ("overlays.arena", "mirror_")):
        for r in (0, 2):
            out.append(PerLayer(f"{module}.{prefix}us_per_visit_r{r}", "us",
                                "lower", (_T, _S)))
            if module != "core.framework":
                out.append(PerLayer(
                    f"{module}.{prefix}overhead_vs_recursive_r{r}", "ratio",
                    "lower", (_T, _S)))
    return out


PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("bench_layers.trace_overhead_share", "ratio", "lower",
             (_T, _S, _F, _Z, _C, _A)),
    # set-up layers
    PerLayer("data.synth.gen_s", "s", "lower", _MIDAS + (_A,)),
    PerLayer("overlays.midas.build_s", "s", "lower", _MIDAS),
    PerLayer("overlays.midas.links_cold_us_per_peer", "us", "lower", _MIDAS),
    PerLayer("overlays.midas.links_warm_us_per_peer", "us", "lower", _MIDAS),
    PerLayer("overlays.midas.us_per_join", "us", "lower", (_C,)),
    PerLayer("overlays.midas.us_per_leave", "us", "lower", (_C,)),
    PerLayer("overlays.skipgraph.build_s", "s", "lower", (_F,)),
    PerLayer("overlays.arena_build.midas_arena_s", "s", "lower", (_A,)),
    PerLayer("overlays.arena_build.from_overlay_s", "s", "lower", (_T, _S)),
    PerLayer("overlays.arena.nbytes_mib", "MiB", "lower", (_A,)),
    # stores and scalar/batch geometry
    PerLayer("common.store.topscoring_miss_us", "us", "lower", (_T, _C, _A)),
    PerLayer("common.store.topscoring_hit_us", "us", "lower", (_T, _C, _A)),
    PerLayer("common.store.insert_us", "us", "lower", (_C,)),
    PerLayer("common.store.cache_hit_ratio", "ratio", "higher", (_T, _C)),
    PerLayer("common.geometry.dominates_us", "us", "lower", (_T, _S)),
    PerLayer("common.geometry.intersection_us", "us", "lower", (_T, _S)),
    PerLayer("common.geometry.mindist_batch_ns_per_row", "ns", "lower",
             (_T, _S)),
    PerLayer("common.geometry.contains_batch_ns_per_row", "ns", "lower",
             (_T, _S)),
    # handlers
    PerLayer("queries.topk.handler_local_us_per_peer", "us", "lower", (_T,)),
    PerLayer("queries.topk.link_decision_us_per_link", "us", "lower", (_T,)),
    PerLayer("queries.topk.links_pruned_ratio", "ratio", "higher", (_T,)),
    PerLayer("queries.skyline.skyline_of_array_ms", "ms", "lower", (_S,)),
    PerLayer("queries.skyline.merge_skylines_us", "us", "lower", (_S,)),
    PerLayer("queries.skyline.handler_local_us_per_peer", "us", "lower",
             (_S,)),
    PerLayer("queries.skyline.link_decision_us_per_link", "us", "lower",
             (_S,)),
    PerLayer("queries.skyline.links_pruned_ratio", "ratio", "higher", (_S,)),
    PerLayer("queries.diversify.subquery_ms", "ms", "lower", (_T,)),
    PerLayer("queries.diversify.greedy_s", "s", "lower", (_T,)),
    # routing and the seeded driver
    PerLayer("net.routing.greedy_route_us", "us", "lower", (_T, _S)),
    PerLayer("net.routing.route_hops", "hops", "lower", (_T, _S)),
    PerLayer("queries.drivers.run_seeded_ms", "ms", "lower", (_T, _S)),
    PerLayer("queries.drivers.seed_share", "ratio", "lower", (_T, _S)),
    # engine rungs: the same unseeded query through every engine
    *_rungs(),
    PerLayer("net.scheduler.overhead_vs_event_r0", "ratio", "lower",
             (_T, _S)),
    PerLayer("net.scheduler.overhead_vs_event_r2", "ratio", "lower",
             (_T, _S)),
    PerLayer("obs.trace.recording_overhead", "ratio", "lower", (_T, _S)),
    PerLayer("obs.trace.spans_per_query", "count", "lower", (_T, _S)),
    # supervision, detector, replication
    PerLayer("net.faults.supervision_overhead", "ratio", "lower", (_F,)),
    PerLayer("net.faults.zero_fault_overhead", "ratio", "lower", (_F,)),
    PerLayer("net.faults.retries_per_query", "count", "lower", (_F,)),
    PerLayer("net.faults.timeouts_per_query", "count", "lower", (_F,)),
    PerLayer("net.faults.reroutes_per_query", "count", "lower", (_F,)),
    PerLayer("net.faults.acks_per_query", "count", "lower", (_F,)),
    PerLayer("net.faults.regions_recovered", "count", "lower", (_F,)),
    PerLayer("net.faults.replica_reads", "count", "lower", (_F,)),
    PerLayer("net.faults.completeness_min", "ratio", "higher", (_F,)),
    PerLayer("overlays.replication.refresh_ms", "ms", "lower", (_F,)),
    # event simulator, scheduler, workload generator
    PerLayer("net.eventsim.us_per_message", "us", "lower", (_F, _Z)),
    PerLayer("net.eventsim.queue_delay_per_query", "ticks", "lower",
             (_F, _Z)),
    PerLayer("net.eventsim.max_saturation", "ratio", "lower", (_F, _Z)),
    PerLayer("net.scheduler.run_ms", "ms", "lower", (_F, _Z)),
    PerLayer("net.scheduler.shed_share", "ratio", "lower", (_F, _Z)),
    PerLayer("net.scheduler.turnaround_p50", "ticks", "lower", (_F, _Z)),
    PerLayer("net.scheduler.turnaround_p99", "ticks", "lower", (_F, _Z)),
    PerLayer("net.workload.generate_ms", "ms", "lower", (_F,)),
    # result cache and adaptive fanout
    PerLayer("net.resultcache.lookup_hit_us", "us", "lower", (_Z, _C)),
    PerLayer("net.resultcache.lookup_semantic_us", "us", "lower", (_Z, _C)),
    PerLayer("net.resultcache.lookup_miss_us", "us", "lower", (_Z, _C)),
    PerLayer("net.resultcache.store_us", "us", "lower", (_Z, _C)),
    PerLayer("net.resultcache.hit_ratio", "ratio", "higher", (_Z, _C)),
    PerLayer("net.resultcache.semantic_hit_ratio", "ratio", "higher",
             (_Z, _C)),
    PerLayer("net.resultcache.invalidations", "count", "lower", (_Z, _C)),
    PerLayer("net.resultcache.messages_saved", "msgs", "higher", (_Z, _C)),
    PerLayer("net.resultcache.host_speedup", "ratio", "higher", (_Z,)),
    PerLayer("net.adaptive.r0_share", "ratio", "higher", (_Z,)),
    # arena wave kernels
    PerLayer("overlays.arena.prime_topk_wave_us_per_store", "us", "lower",
             (_A,)),
    PerLayer("overlays.arena.prime_skyline_wave_us_per_store", "us", "lower",
             (_A,)),
    PerLayer("overlays.arena.wavefront_us_per_visit", "us", "lower", (_A,)),
    PerLayer("overlays.arena.wavefront_vs_scalar", "ratio", "higher", (_A,)),
)


def benchmark_json() -> dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
