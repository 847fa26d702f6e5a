"""Open-loop workload generation for the concurrent query engine.

Serving-stack behaviour under load only shows up under *open-loop*
traffic: arrivals keep coming at their own rate whether or not the
system has kept up, so queues actually build (a closed loop would
self-throttle and hide the overload).  This module drives a
:class:`~repro.net.scheduler.QueryEngine` with a seeded Poisson arrival
process over the repo's handler/overlay matrix and reduces the outcomes
to the headline serving metrics: exact p50/p99 latency, shed rate,
deadline-miss rate, and completeness of admitted queries.

Everything is derived from one seeded generator in a fixed draw order,
so a workload is a pure function of ``(overlay, spec, engine config)``:
two runs produce identical per-query answers, stats, and shed decisions
(``tests/net/test_workload.py`` pins this property), which is what makes
``benchmarks/bench_load.py``'s committed baseline a meaningful CI gate.

Latency percentiles are computed *exactly* from the sorted turnaround
times — deliberately not via :class:`~repro.obs.metrics.Histogram`,
whose quantiles round up to bucket edges (and to infinity past the last
bound), which would break the "p99 finite and monotone in load" gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from ..common.hashing import mix
from ..common.scoring import LinearScore
from ..core.framework import PeerLike
from ..core.regions import Region
from ..obs.trace import TraceSink
from ..queries.skyline import SkylineHandler
from ..queries.topk import TopKHandler
from .scheduler import (QueryBudgetExceeded, QueryCompleted,
                        QueryDeadlineExceeded, QueryEngine, QueryOutcome,
                        QueryRejected)

__all__ = ["WorkloadSpec", "WorkloadReport", "poisson_arrivals",
           "run_workload"]

_ARRIVAL_SALT = 0x10AD
_QUERY_SALT = 0x0A5B


class QueryableOverlay(Protocol):
    """An overlay the workload driver can target: enumerable peers plus
    a restrictable query domain (every repo overlay satisfies this)."""

    def peers(self) -> Sequence[PeerLike]:  # pragma: no cover - protocol
        ...

    def domain(self) -> Region:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded description of one open-loop query mix.

    ``rate`` is the mean arrival rate in queries per simulation time
    unit; inter-arrival gaps are exponential, so the arrival process is
    Poisson.  ``topk_fraction`` splits the mix between top-k queries
    (seeded linear scoring weights) and skylines; ``rs`` is the pool of
    ripple parameters sampled per query.  ``deadline`` / ``max_events``
    become each query's per-query budgets, and ``classes`` assigns
    weighted-fair classes by (name, relative frequency).
    """

    queries: int
    rate: float
    seed: int = 0
    topk_fraction: float = 0.5
    k: int = 4
    rs: tuple[int, ...] = (0, 1)
    deadline: int | None = None
    max_events: int | None = None
    priorities: tuple[int, ...] = (0,)
    classes: tuple[tuple[str, int], ...] = (("default", 1),)
    #: Duplicate-visit mode forwarded to every query; ``None`` keeps the
    #: engine default (strict without faults).  Overlays with
    #: conservative region covers (CAN) need ``False``.
    strict: bool | None = None
    #: Distinct query templates; ``None`` (the default, and the legacy
    #: behaviour) draws a fresh query per arrival.  With a population the
    #: spec pre-draws that many templates and each arrival Zipf-picks one,
    #: so popular queries repeat — the regime a result cache serves.
    population: int | None = None
    #: Zipf exponent of template popularity (population mode only).
    skew: float = 1.1
    #: Attach an :class:`~repro.net.adaptive.AdaptiveFanout` over ``rs``
    #: to the engine, overriding the per-arrival ``r`` draw by load.
    adaptive_r: bool = False

    def __post_init__(self) -> None:
        if self.queries <= 0:
            raise ValueError("queries must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if not 0.0 <= self.topk_fraction <= 1.0:
            raise ValueError("topk_fraction must be within [0, 1]")
        if not self.rs or not self.priorities or not self.classes:
            raise ValueError("rs, priorities, and classes must be non-empty")
        if self.population is not None and self.population <= 0:
            raise ValueError("population must be positive when set")
        if self.skew <= 0:
            raise ValueError("skew must be positive")


def poisson_arrivals(spec: WorkloadSpec) -> list[int]:
    """Integer arrival times of the spec's seeded Poisson process."""
    rng = np.random.default_rng(mix(spec.seed, _ARRIVAL_SALT))
    gaps = rng.exponential(1.0 / spec.rate, size=spec.queries)
    return [int(t) for t in np.floor(np.cumsum(gaps))]


def _exact_percentile(values: Sequence[int], q: float) -> float:
    """The smallest value with at least ``q`` of the sample at or below
    it — an exact order statistic, never a bucket upper bound."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class WorkloadReport:
    """Outcome summary of one workload run."""

    outcomes: dict[int, QueryOutcome]
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    budget_exceeded: int = 0
    #: Turnaround (submission -> settlement) of every completed query.
    latencies: tuple[int, ...] = ()
    p50: float = math.inf
    p99: float = math.inf
    shed_rate: float = 0.0
    #: Minimum stats completeness over completed (admitted) queries.
    admitted_completeness: float = 1.0
    #: Highest per-peer busy fraction over the run (1.0 == saturated).
    max_saturation: float = 0.0
    #: Exceptions are never expected; kept to make the invariant visible.
    errors: int = 0
    #: Network messages summed over completed queries.
    messages_total: int = 0
    #: What this run added to the result-cache counters (all zero when
    #: the engine has no cache).
    cache_hits: int = 0
    cache_semantic_hits: int = 0
    cache_messages_saved: int = 0
    #: Chosen-``r`` tallies of the adaptive controller (empty without one).
    fanout_decisions: dict[int, int] | None = None

    def as_dict(self) -> dict[str, float | int]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "budget_exceeded": self.budget_exceeded,
            "p50": self.p50,
            "p99": self.p99,
            "shed_rate": round(self.shed_rate, 6),
            "admitted_completeness": self.admitted_completeness,
            "max_saturation": round(self.max_saturation, 6),
            "errors": self.errors,
            "messages_total": self.messages_total,
            "cache_hits": self.cache_hits,
            "cache_semantic_hits": self.cache_semantic_hits,
            "cache_messages_saved": self.cache_messages_saved,
        }


def _reduce(outcomes: Mapping[int, QueryOutcome], engine: QueryEngine,
            cache_before: Mapping[str, int]) -> WorkloadReport:
    report = WorkloadReport(outcomes=dict(outcomes))
    latencies: list[int] = []
    completeness = 1.0
    for outcome in outcomes.values():
        report.submitted += 1
        if isinstance(outcome, QueryCompleted):
            report.completed += 1
            latencies.append(outcome.turnaround)
            completeness = min(completeness, outcome.stats.completeness)
            report.messages_total += outcome.stats.total_messages
        elif isinstance(outcome, QueryRejected):
            report.shed += 1
        elif isinstance(outcome, QueryDeadlineExceeded):
            report.deadline_exceeded += 1
        elif isinstance(outcome, QueryBudgetExceeded):
            report.budget_exceeded += 1
    report.latencies = tuple(sorted(latencies))
    report.p50 = _exact_percentile(latencies, 0.50)
    report.p99 = _exact_percentile(latencies, 0.99)
    report.shed_rate = report.shed / max(1, report.submitted)
    report.admitted_completeness = completeness
    elapsed = engine.sim.now
    if elapsed > 0 and engine.sim.busy_time:
        report.max_saturation = min(1.0, max(
            busy / elapsed for busy in engine.sim.busy_time.values()))
    if engine.cache is not None:
        # The directory may outlive this run: report its counters' moves.
        counters = engine.cache.snapshot()
        report.cache_hits = counters["hits"] - cache_before["hits"]
        report.cache_semantic_hits = \
            counters["semantic_hits"] - cache_before["semantic_hits"]
        report.cache_messages_saved = \
            counters["messages_saved"] - cache_before["messages_saved"]
    if engine.fanout is not None:
        report.fanout_decisions = dict(engine.fanout.decisions)
    return report


def run_workload(
    overlay: QueryableOverlay,
    spec: WorkloadSpec,
    *,
    engine: QueryEngine,
    sink: TraceSink | None = None,
) -> WorkloadReport:
    """Drive ``engine`` with the spec's arrival schedule and reduce it.

    The query mix is drawn per arrival in a fixed order from one seeded
    generator (initiator, query family, scoring weights, r, priority,
    class), so the whole run is deterministic.  With
    ``spec.population`` the handler draw is replaced by a Zipf pick from
    a pre-drawn template pool (the repeated-query regime; all other
    per-arrival draws keep their order, and ``population=None`` runs
    are draw-for-draw identical to the legacy generator).
    """
    if sink is not None:
        engine.sink = sink
    if spec.adaptive_r and engine.fanout is None:
        from .adaptive import AdaptiveFanout
        engine.fanout = AdaptiveFanout(rs=spec.rs)
    cache_before = engine.cache.snapshot() if engine.cache is not None else {}
    rng = np.random.default_rng(mix(spec.seed, _QUERY_SALT))
    peers = overlay.peers()
    restriction = overlay.domain()
    dims = restriction.cover()[0].dims
    class_names = [name for name, _ in spec.classes]
    class_weights = np.asarray([max(0, w) for _, w in spec.classes], float)
    class_probs = class_weights / class_weights.sum()

    def draw_handler() -> TopKHandler | SkylineHandler:
        if rng.random() < spec.topk_fraction:
            weights = 0.25 + rng.random(dims)
            return TopKHandler(LinearScore(weights), spec.k)
        return SkylineHandler(dims)

    templates: list[TopKHandler | SkylineHandler] | None = None
    template_probs = None
    if spec.population is not None:
        templates = [draw_handler() for _ in range(spec.population)]
        ranks = np.arange(1, spec.population + 1, dtype=float)
        zipf = ranks ** -spec.skew
        template_probs = zipf / zipf.sum()
    for arrival in poisson_arrivals(spec):
        initiator = peers[int(rng.integers(0, len(peers)))]
        if templates is None:
            handler = draw_handler()
        else:
            handler = templates[
                int(rng.choice(len(templates), p=template_probs))]
        r = int(spec.rs[int(rng.integers(0, len(spec.rs)))])
        priority = int(
            spec.priorities[int(rng.integers(0, len(spec.priorities)))])
        weight_class = class_names[
            int(rng.choice(len(class_names), p=class_probs))]
        engine.submit_at(arrival, initiator, handler, r,
                         restriction=restriction, priority=priority,
                         weight_class=weight_class, deadline=spec.deadline,
                         max_events=spec.max_events, strict=spec.strict)
    outcomes = engine.run()
    return _reduce(outcomes, engine, cache_before)
