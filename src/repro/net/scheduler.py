"""Admission control and concurrent scheduling of RIPPLE queries.

A :class:`QueryEngine` is the one way onto the event queue: it is the
only code that builds an :class:`~repro.net.eventsim.EventSimulator` and
launches a query's root visit.  It multiplexes many queries over that
one simulator (and therefore over shared per-peer service queues), with

* **admission control** — at most ``capacity`` queries run concurrently;
  excess arrivals wait in a bounded admission queue ordered by a
  pluggable :class:`AdmissionPolicy` (FIFO, priority, weighted-fair);
* **load shedding** — an arrival finding the admission queue full is
  rejected immediately with a typed :class:`QueryRejected` outcome
  instead of growing an unbounded backlog;
* **deadline budgets** — a query past its deadline is cancelled, its
  in-flight events dropped by the simulator, and the caller receives a
  typed :class:`QueryDeadlineExceeded` outcome carrying the partial
  stats collected up to the deadline (mirroring
  :class:`~repro.net.eventsim.SimulationBudgetExceeded`);
* **per-query event budgets** — one runaway query blows its own
  ``max_events`` cap (:class:`QueryBudgetExceeded`) without exhausting a
  shared simulator budget and killing its co-tenants.

Degradation is graceful by construction: every submitted query produces
exactly one :class:`QueryOutcome`, admitted queries that complete do so
with the same answers and stats as a lone run, and overload only ever
converts *whole* queries into typed rejected / deadline outcomes — it
never silently corrupts an admitted query.

Settlement: a query settles when its root answer is complete, when it
passes its deadline, or when it blows its event budget.  In every case
its context is cancelled, so the simulator drops its still-queued events
(timers, orphaned subtrees), and its latency is the settlement time
minus its launch time.

The single-query entry points
(:func:`~repro.net.eventsim.event_driven_ripple`,
:func:`~repro.net.faults.resilient_ripple`) run one job on a fresh
``QueryEngine(capacity=1)``.  With ``service_time == 0``
and no faults that reproduces :func:`~repro.core.framework.run_ripple`
exactly; ``tests/net/test_scheduler.py`` pins this across the overlay ×
handler matrix.  See ``docs/LOAD.md`` for the queueing model and
guarantees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping, Sequence

from ..core.framework import PeerLike, _checked_r, _Visit
from ..core.handler import QueryHandler
from ..core.regions import Region, region_volume
from ..obs.trace import TraceSink
from .adaptive import AdaptiveFanout, EngineLoad
from .context import QueryContext, QueryResult, QueryStats
from .detector import FailureDetector
from .eventsim import (DEFAULT_MAX_EVENTS, EventSimulator,
                       SimulationBudgetExceeded, _Invocation)
from .resultcache import CacheDirectory

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from ..overlays.replication import ReplicaDirectory
    from .faults import FaultPlan

__all__ = ["AdmissionPolicy", "FifoPolicy", "PriorityPolicy",
           "WeightedFairPolicy", "QueryJob", "QueryOutcome",
           "QueryCompleted", "QueryRejected", "QueryDeadlineExceeded",
           "QueryBudgetExceeded", "QueryEngine"]


@dataclass(frozen=True)
class QueryJob:
    """One query submitted to a :class:`QueryEngine`.

    ``deadline`` and ``max_events`` are per-query budgets: the deadline
    is *relative* to the submission time (wall budget in simulation time
    units, covering admission queueing, retries, and replica recovery),
    the event budget bounds simulator work done on the query's behalf.
    ``strict`` overrides the engine's default duplicate-visit mode
    (strict without faults, dedup under a fault plan).  A negative
    ``deadline``, a non-positive ``max_events`` or a bad ``r`` is a
    ``ValueError`` before the job is queued.
    """

    job_id: int
    initiator: PeerLike
    handler: QueryHandler
    r: int
    restriction: Region
    priority: int = 0
    weight_class: str = "default"
    deadline: int | None = None
    max_events: int | None = None
    strict: bool | None = None

    def __post_init__(self) -> None:
        _checked_r(self.r)
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be non-negative, got "
                             f"{self.deadline}")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got "
                             f"{self.max_events}")


@dataclass
class QueryOutcome:
    """Terminal disposition of one submitted query.

    Every submission yields exactly one outcome; ``stats`` is the
    (possibly partial) cost ledger — accurate for whatever work actually
    happened, with ``completeness`` bounding answer quality.
    """

    job: QueryJob
    stats: QueryStats
    submitted_at: int
    finished_at: int

    @property
    def turnaround(self) -> int:
        """End-to-end time from submission to settlement (includes
        admission queueing; the open-loop latency metric)."""
        return self.finished_at - self.submitted_at


@dataclass
class QueryCompleted(QueryOutcome):
    """The query ran to completion; ``answer`` is its finalized result."""

    answer: Any = None


@dataclass
class QueryRejected(QueryOutcome):
    """Shed at admission: the bounded queue was full.  No work ran, so
    the stats are empty with ``completeness == 0.0``."""

    reason: str = "queue-full"


@dataclass
class QueryDeadlineExceeded(QueryOutcome):
    """Cancelled past its deadline budget; carries the partial stats
    collected up to the deadline (``deadline`` is the absolute time)."""

    deadline: int = 0


@dataclass
class QueryBudgetExceeded(QueryOutcome):
    """Cancelled after blowing its per-query event budget ``cap``."""

    cap: int = 0


class AdmissionPolicy:
    """Strategy ordering the bounded admission queue.

    :meth:`select` picks which waiting job to admit next (an index into
    ``waiting``); :meth:`admitted` observes the choice so stateful
    policies (weighted fairness) can account it.
    """

    name = "base"

    def select(self, waiting: Sequence[QueryJob]) -> int:
        raise NotImplementedError

    def admitted(self, job: QueryJob) -> None:  # noqa: B027 - optional hook
        """Observe an admission; default policies keep no state."""


class FifoPolicy(AdmissionPolicy):
    """Admit strictly in arrival order."""

    name = "fifo"

    def select(self, waiting: Sequence[QueryJob]) -> int:
        return 0


class PriorityPolicy(AdmissionPolicy):
    """Admit the highest ``priority`` first; FIFO among equals."""

    name = "priority"

    def select(self, waiting: Sequence[QueryJob]) -> int:
        best = 0
        for index in range(1, len(waiting)):
            if waiting[index].priority > waiting[best].priority:
                best = index
        return best


class WeightedFairPolicy(AdmissionPolicy):
    """Share admissions across ``weight_class``es proportionally.

    Classic weighted round-robin on admission counts: always admit from
    the waiting class with the smallest ``admitted / weight`` ratio, so
    a flood of one class cannot starve the others; within a class, FIFO.
    Unknown classes default to weight 1.
    """

    name = "weighted-fair"

    def __init__(self, weights: Mapping[str, float] | None = None) -> None:
        self.weights = dict(weights or {})
        for cls, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight of class {cls!r} must be > 0")
        self._admitted: dict[str, int] = {}

    def _ratio(self, weight_class: str) -> float:
        weight = self.weights.get(weight_class, 1.0)
        return self._admitted.get(weight_class, 0) / weight

    def select(self, waiting: Sequence[QueryJob]) -> int:
        best = 0
        best_ratio = self._ratio(waiting[0].weight_class)
        for index in range(1, len(waiting)):
            ratio = self._ratio(waiting[index].weight_class)
            if ratio < best_ratio:
                best, best_ratio = index, ratio
        return best

    def admitted(self, job: QueryJob) -> None:
        self._admitted[job.weight_class] = \
            self._admitted.get(job.weight_class, 0) + 1


@dataclass
class _Running:
    """Book-keeping for one admitted, in-flight query."""

    job: QueryJob
    ctx: QueryContext
    span: int = 0


class QueryEngine:
    """Concurrent multi-query executor with admission control.

    ``capacity`` bounds concurrently running queries, ``queue_limit``
    the admission queue behind them (arrivals beyond both are shed).
    ``faults`` / ``replicas`` enable the same supervised delivery and
    self-healing machinery as :func:`~repro.net.faults.resilient_ripple`;
    ``service_time`` turns on the per-peer service-queue model.

    ``cache`` attaches a :class:`~repro.net.resultcache.CacheDirectory`:
    exact hits settle at admission with the remembered answer and
    zero-cost stats, semantic hits seed the root state, and completed
    queries are stored back.  The engine only consults it on a
    zero-fault configuration — under a fault plan a cold run may be
    partial, which would break the warm == cold bit-identity guarantee —
    but still wires :meth:`~repro.net.resultcache.CacheDirectory.watch_replicas`
    so crash promotions invalidate.  ``fanout`` attaches an
    :class:`~repro.net.adaptive.AdaptiveFanout` controller that
    overrides each admitted job's ``r`` from the observed load
    (answers are ``r``-invariant, so only costs change).

    Usage: :meth:`submit` (now) or :meth:`submit_at` (open-loop arrival
    times), then :meth:`run` to drain the simulation; outcomes are
    returned keyed by job id.  The engine is reusable: later submissions
    after a drain start a new busy period on the same simulator clock.
    """

    def __init__(
        self,
        *,
        capacity: int = 4,
        queue_limit: int = 16,
        policy: AdmissionPolicy | None = None,
        faults: "FaultPlan | None" = None,
        replicas: "ReplicaDirectory | None" = None,
        service_time: int = 0,
        max_events_per_query: int | None = DEFAULT_MAX_EVENTS,
        sink: TraceSink | None = None,
        cache: CacheDirectory | None = None,
        fanout: AdaptiveFanout | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if max_events_per_query is not None and max_events_per_query <= 0:
            raise ValueError(f"max_events_per_query must be positive, got "
                             f"{max_events_per_query}")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.policy = policy if policy is not None else FifoPolicy()
        self.faults = faults
        self.max_events_per_query = max_events_per_query
        self.sink = sink
        # The shared simulator carries no global cap: budgets are per
        # query, so one runaway cannot take down its co-tenants.
        self.sim = EventSimulator(faults=faults, max_events=None,
                                  service_time=service_time)
        self.sim.on_overrun = self._on_overrun
        self.detector: FailureDetector | None = None
        self._replicas = replicas
        if replicas is not None:
            replicas.refresh()
            self.sim.replicas = replicas
        self.cache = cache
        self.fanout = fanout
        if cache is not None and replicas is not None:
            cache.watch_replicas(replicas)
        self._job_ids = itertools.count()
        self._waiting: list[QueryJob] = []
        self._running: dict[int, _Running] = {}
        self._submitted_at: dict[int, int] = {}
        self.outcomes: dict[int, QueryOutcome] = {}

    def _alive(self, peer_id: Hashable) -> bool:
        assert self.faults is not None
        return self.faults.alive(peer_id, self.sim.now)

    def _load(self) -> EngineLoad:
        """The occupancy snapshot the fanout controller decides on."""
        return EngineLoad(running=len(self._running), capacity=self.capacity,
                          waiting=len(self._waiting),
                          queue_limit=self.queue_limit)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        initiator: PeerLike,
        handler: QueryHandler,
        r: int = 0,
        *,
        restriction: Region,
        priority: int = 0,
        weight_class: str = "default",
        deadline: int | None = None,
        max_events: int | None = None,
        strict: bool | None = None,
    ) -> int:
        """Submit a query at the current simulation time; returns its id."""
        job = self._job(initiator, handler, r, restriction=restriction,
                        priority=priority, weight_class=weight_class,
                        deadline=deadline, max_events=max_events,
                        strict=strict)
        self._admit(job)
        return job.job_id

    def submit_at(
        self,
        time: int,
        initiator: PeerLike,
        handler: QueryHandler,
        r: int = 0,
        *,
        restriction: Region,
        priority: int = 0,
        weight_class: str = "default",
        deadline: int | None = None,
        max_events: int | None = None,
        strict: bool | None = None,
    ) -> int:
        """Schedule a submission at absolute simulation ``time``.

        The open-loop entry point: a workload driver posts its whole
        arrival schedule up front, then :meth:`run` plays it out.
        """
        if time < self.sim.now:
            raise ValueError("cannot submit into the past")
        job = self._job(initiator, handler, r, restriction=restriction,
                        priority=priority, weight_class=weight_class,
                        deadline=deadline, max_events=max_events,
                        strict=strict)
        self.sim.schedule(time - self.sim.now, lambda: self._admit(job))
        return job.job_id

    def _job(self, initiator: PeerLike, handler: QueryHandler, r: int, *,
             restriction: Region, **options: Any) -> QueryJob:
        """The API-boundary checks of both submission paths, then the job."""
        handler.check_restriction(restriction)
        return QueryJob(job_id=next(self._job_ids), initiator=initiator,
                        handler=handler, r=r, restriction=restriction,
                        **options)

    def _admit(self, job: QueryJob) -> None:
        self._submitted_at[job.job_id] = self.sim.now
        if len(self._running) < self.capacity:
            self.policy.admitted(job)
            self._launch(job)
        elif len(self._waiting) < self.queue_limit:
            self._waiting.append(job)
        else:
            self._shed(job)

    def _shed(self, job: QueryJob) -> None:
        stats = QueryStats(completeness=0.0)
        self._settle(QueryRejected(job=job, stats=stats,
                                   submitted_at=self._submitted_at[job.job_id],
                                   finished_at=self.sim.now))

    # -- execution ---------------------------------------------------------

    def _launch(self, job: QueryJob) -> None:
        seed_state: Any = None
        cache = self.cache if self.faults is None else None
        if cache is not None:
            hit = cache.consult(job.handler, job.restriction, self.sink,
                                self.sim.now, job.initiator.peer_id,
                                {"query": job.job_id, "r": job.r},
                                {"status": "completed"})
            if hit.is_exact:
                # Settled at admission: the remembered answer, zero cost.
                # No capacity was consumed, so nothing frees up either.
                self._settle(QueryCompleted(
                    job=job, stats=QueryStats(), answer=hit.answer,
                    submitted_at=self._submitted_at[job.job_id],
                    finished_at=self.sim.now))
                return
            seed_state = hit.state
        plan = self.faults
        if plan is not None:
            plan.protect(job.initiator.peer_id)
        # The detector is built lazily, after the first initiator is
        # protected (protected peers are excluded from the probe set), and
        # started before the root is scheduled.
        if (self.detector is None and self._replicas is not None
                and plan is not None and plan.can_fail):
            replicas = self._replicas
            self.detector = FailureDetector(
                self.sim, plan,
                (p.peer_id for p in replicas.owners()),
                on_dead=lambda pid: replicas.repair(
                    pid, lambda hid: self._alive(hid)),
                on_alive=replicas.demote)
            self.sim.detector = self.detector
        if self.detector is not None:
            self.detector.start()
        strict = (plan is None) if job.strict is None else job.strict
        ctx = QueryContext(strict=strict)
        ctx.query_id = job.job_id
        ctx.started_at = self.sim.now
        ctx.max_events = job.max_events if job.max_events is not None \
            else self.max_events_per_query
        if job.deadline is not None:
            # The deadline budget starts at submission: time spent in the
            # admission queue is part of the query's wall budget.
            ctx.deadline = self._submitted_at[job.job_id] + job.deadline
        if self.sink is not None:
            ctx.sink = self.sink
        if plan is not None:
            ctx.restriction_volume = region_volume(job.restriction)
        r = job.r if self.fanout is None \
            else self.fanout.choose(job, self._load())
        entry = _Running(job=job, ctx=ctx)
        if ctx.sink.enabled:
            entry.span = ctx.sink.begin_span(
                "query", job.initiator.peer_id, self.sim.now,
                query=job.job_id, r=r, region=repr(job.restriction),
                weight_class=job.weight_class, priority=job.priority)
            if cache is not None:
                cache.trace_run(ctx.sink, entry.span, self.sim.now,
                                seed_state)
        self._running[job.job_id] = entry

        state = job.handler.initial_state() if seed_state is None \
            else seed_state

        def root() -> None:
            visit = _Visit(ctx, job.handler, job.initiator, state,
                           job.restriction, _checked_r(r),
                           job.initiator.peer_id, self.sim.now,
                           entry.span or None)
            _Invocation(self.sim, visit,
                        lambda states: self._complete(job.job_id)).start()

        self.sim.schedule(0, root, ctx)

    def _complete(self, job_id: int) -> None:
        entry = self._running.pop(job_id, None)
        if entry is None:  # already settled (cancelled while finishing)
            return
        ctx, job = entry.ctx, entry.job
        ctx.cancelled = True  # orphaned work still queued is dropped
        stats = ctx.stats(self.sim.now - ctx.started_at)
        answer = job.handler.finalize(ctx.collected_answers)
        if ctx.sink.enabled:
            ctx.sink.end_span(entry.span, self.sim.now, status="completed")
        if self.cache is not None and self.faults is None:
            self.cache.store(job.handler, job.restriction,
                             QueryResult(answer, stats), ctx.processed)
        self._settle(QueryCompleted(
            job=job, stats=stats, answer=answer,
            submitted_at=self._submitted_at[job_id],
            finished_at=self.sim.now))
        self._admit_next()

    def _on_overrun(self, ctx: QueryContext, reason: str) -> None:
        """Simulator hook: ``ctx`` blew its deadline or event budget."""
        job_id = ctx.query_id
        assert isinstance(job_id, int)
        entry = self._running.pop(job_id, None)
        if entry is None:
            return
        job = entry.job
        submitted = self._submitted_at[job_id]
        outcome: QueryOutcome
        if reason == "deadline":
            assert ctx.deadline is not None
            stats = ctx.stats(max(0, ctx.deadline - ctx.started_at))
            outcome = QueryDeadlineExceeded(
                job=job, stats=stats, submitted_at=submitted,
                finished_at=ctx.deadline, deadline=ctx.deadline)
        else:
            stats = ctx.stats(max(0, self.sim.now - ctx.started_at))
            assert ctx.max_events is not None
            outcome = QueryBudgetExceeded(
                job=job, stats=stats, submitted_at=submitted,
                finished_at=self.sim.now, cap=ctx.max_events)
        if ctx.sink.enabled:
            ctx.sink.end_span(entry.span, self.sim.now, status=reason)
        self._settle(outcome)
        self._admit_next()

    def _admit_next(self) -> None:
        """Fill freed capacity from the admission queue (policy order)."""
        while self._waiting and len(self._running) < self.capacity:
            job = self._waiting.pop(self.policy.select(self._waiting))
            submitted = self._submitted_at[job.job_id]
            if job.deadline is not None \
                    and self.sim.now > submitted + job.deadline:
                # Its whole wall budget drained in the admission queue.
                self._settle(QueryDeadlineExceeded(
                    job=job, stats=QueryStats(completeness=0.0),
                    submitted_at=submitted,
                    finished_at=submitted + job.deadline,
                    deadline=submitted + job.deadline))
                continue
            self.policy.admitted(job)
            self._launch(job)
        if not self._running and not self._waiting \
                and self.detector is not None:
            self.detector.stop()

    def _settle(self, outcome: QueryOutcome) -> None:
        self.outcomes[outcome.job.job_id] = outcome
        if self.fanout is not None and isinstance(outcome, QueryCompleted):
            self.fanout.observe(outcome)
        if not self._running and not self._waiting \
                and self.detector is not None:
            self.detector.stop()

    # -- draining ----------------------------------------------------------

    def run(self) -> dict[int, QueryOutcome]:
        """Drain the simulation; every submitted query gets an outcome."""
        self.sim.run()
        if self.detector is not None:
            self.detector.stop()
        return self.outcomes

    def result_of(self, job_id: int) -> QueryOutcome:
        return self.outcomes[job_id]


def _run_one_job(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int,
    *,
    restriction: Region,
    strict: bool | None = None,
    faults: "FaultPlan | None" = None,
    replicas: "ReplicaDirectory | None" = None,
    max_events: int | None = None,
    sink: TraceSink | None = None,
) -> QueryResult:
    """Run one query as the only job of a fresh ``QueryEngine(capacity=1)``.

    The body of the single-query entry points
    (:func:`~repro.net.eventsim.event_driven_ripple`,
    :func:`~repro.net.faults.resilient_ripple`).  A blown event budget
    raises :class:`~repro.net.eventsim.SimulationBudgetExceeded` carrying
    the query's partial stats.
    """
    engine = QueryEngine(capacity=1, faults=faults, replicas=replicas,
                         sink=sink)
    job = engine.submit(initiator, handler, r, restriction=restriction,
                        max_events=max_events, strict=strict)
    outcome = engine.run()[job]
    if isinstance(outcome, QueryBudgetExceeded):
        raise SimulationBudgetExceeded(
            f"query exceeded its event budget of {outcome.cap}; likely a "
            "retry storm (raise max_events if the workload is legitimate)",
            cap=outcome.cap, executed=outcome.cap + 1, stats=outcome.stats,
            query_id=job)
    assert isinstance(outcome, QueryCompleted)
    return QueryResult(answer=outcome.answer, stats=outcome.stats)
