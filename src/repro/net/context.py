"""Bookkeeping for one simulated distributed query.

The paper evaluates distributed algorithms on two metrics (Section 7.1):

* **latency** — number of hops on the critical path of query propagation.
  Parallel forwards contribute ``1 + max(child latencies)``; sequential,
  response-waiting forwards contribute ``sum(1 + child latency)``.  This
  matches Lemmas 1–3 exactly (response/return hops are not part of query
  propagation latency).
* **congestion** — how many peers end up processing a query; averaged over
  uniformly issued queries this equals the paper's "average number of
  queries processed at any peer when n queries are issued".

A :class:`QueryContext` is threaded through a single query execution and
collects these plus secondary traffic metrics (messages, shipped tuples).
Multi-round operations (k-diversification) merge the contexts of their
sub-queries with :meth:`QueryStats.combine_sequential`.

Fault accounting (see :mod:`repro.net.faults`): executions under an
injected :class:`~repro.net.faults.FaultPlan` additionally record fired
timeouts, retransmissions, re-routed forwards, dropped messages, and the
domain volume that could not be reached.  The headline robustness metric
is **completeness** — the fraction of the restricted domain volume that
was actually processed — so a degraded query returns a partial answer
with an explicit quality bound instead of hanging or crashing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Hashable

from ..obs.trace import NULL_SINK, TraceSink

__all__ = ["QueryContext", "QueryStats", "QueryResult", "DuplicateVisitError"]


class DuplicateVisitError(RuntimeError):
    """A peer processed the same query twice under strict single-visit mode.

    Over overlays with exact, partitioning link regions (MIDAS, Chord) a
    double visit indicates a broken region partition, so the simulator
    fails loudly.  Overlays with conservative region covers (CAN frustums)
    run with ``strict=False`` and dedup instead, like real deployments.
    """


@dataclass
class QueryStats:
    """Immutable-after-collection summary of one (sub-)query's cost."""

    latency: int = 0
    processed: int = 0
    forward_messages: int = 0
    response_messages: int = 0
    answer_messages: int = 0
    tuples_shipped: int = 0
    #: Time units query work spent waiting in per-peer service queues
    #: (nonzero only when the engine models a per-peer service rate; see
    #: :class:`~repro.net.eventsim.EventSimulator` and docs/LOAD.md).
    queue_delay: int = 0
    # -- fault accounting (nonzero only under an injected FaultPlan) ------
    timeouts: int = 0
    retries: int = 0
    reroutes: int = 0
    dropped_messages: int = 0
    ack_messages: int = 0
    unreachable_volume: float = 0.0
    #: Stranded restriction regions rescued by promoting a replica holder
    #: (see :mod:`repro.overlays.replication`) instead of being abandoned.
    regions_recovered: int = 0
    #: Local reductions served from a replica of a dead peer's store.
    replica_reads: int = 0
    #: Fraction of the restricted domain volume actually processed; 1.0
    #: for fault-free executions, < 1.0 when regions were abandoned.
    completeness: float = 1.0

    @property
    def total_messages(self) -> int:
        return self.forward_messages + self.response_messages + self.answer_messages

    def combine_sequential(self, other: "QueryStats") -> "QueryStats":
        """Aggregate a follow-up round executed after this one.

        Completeness combines by ``min``: a multi-round answer is only as
        complete as its least complete round.
        """
        return QueryStats(
            latency=self.latency + other.latency,
            processed=self.processed + other.processed,
            forward_messages=self.forward_messages + other.forward_messages,
            response_messages=self.response_messages + other.response_messages,
            answer_messages=self.answer_messages + other.answer_messages,
            tuples_shipped=self.tuples_shipped + other.tuples_shipped,
            queue_delay=self.queue_delay + other.queue_delay,
            timeouts=self.timeouts + other.timeouts,
            retries=self.retries + other.retries,
            reroutes=self.reroutes + other.reroutes,
            dropped_messages=self.dropped_messages + other.dropped_messages,
            ack_messages=self.ack_messages + other.ack_messages,
            unreachable_volume=self.unreachable_volume + other.unreachable_volume,
            regions_recovered=self.regions_recovered + other.regions_recovered,
            replica_reads=self.replica_reads + other.replica_reads,
            completeness=min(self.completeness, other.completeness),
        )

    def as_dict(self) -> dict[str, int | float]:
        """Every metric (including derived ones) as a flat JSON-ready dict."""
        out: dict[str, int | float] = asdict(self)
        out["total_messages"] = self.total_messages
        return out


@dataclass
class QueryResult:
    """Final answer of a distributed query together with its cost."""

    answer: Any
    stats: QueryStats


@dataclass
class QueryContext:
    """Mutable ledger threaded through one query execution."""

    strict: bool = True
    visited: set[Hashable] = field(default_factory=set)
    processed: set[Hashable] = field(default_factory=set)
    #: Peers that may legally be reached again without error even under
    #: strict mode (e.g. peers already processed by a seeding route).
    revisitable: set[Hashable] = field(default_factory=set)
    forward_messages: int = 0
    response_messages: int = 0
    answer_messages: int = 0
    tuples_shipped: int = 0
    collected_answers: list[Any] = field(default_factory=list)
    # -- fault accounting -------------------------------------------------
    timeouts: int = 0
    retries: int = 0
    reroutes: int = 0
    dropped_messages: int = 0
    ack_messages: int = 0
    unreachable_volume: float = 0.0
    regions_recovered: int = 0
    replica_reads: int = 0
    #: Volume of the query's initial restriction area; the denominator of
    #: the completeness metric.  0.0 means "not tracked" (fault-free
    #: engines) and yields completeness 1.0.
    restriction_volume: float = 0.0
    # -- concurrent scheduling (see repro.net.scheduler, docs/LOAD.md) ----
    #: Identity of this query inside a concurrent engine; ``None`` for
    #: standalone single-query executions.
    query_id: Hashable | None = None
    #: Absolute simulation time past which this query is over budget.
    #: ``None`` disables deadline enforcement (the single-query default).
    deadline: int | None = None
    #: Per-query event budget; ``None`` defers to the simulator's global
    #: cap.  Under a concurrent engine every query gets its own budget so
    #: one runaway cannot exhaust a shared cap and kill its co-tenants.
    max_events: int | None = None
    #: Events the simulator has executed on this query's behalf.
    events_executed: int = 0
    #: Simulation time this query's root invocation was launched; the
    #: zero point of its latency measurements under concurrency.
    started_at: int = 0
    #: Set when the query settles (completed, deadline blown, budget
    #: exhausted): the simulator drops the query's still-queued events
    #: instead of executing them, so a settled query cannot poison shared
    #: peer queues or keep counting work after its answer is fixed.
    cancelled: bool = False
    #: Accumulated time units this query's messages spent queued behind
    #: other traffic at busy peers (see EventSimulator.service_time).
    queue_delay: int = 0
    #: Observability hook (see :mod:`repro.obs.trace`): the engines emit
    #: hop-level spans and events here.  The default :data:`NULL_SINK`
    #: is stateless and permanently disabled, so unobserved executions
    #: pay one attribute test per instrumentation site and nothing else.
    sink: TraceSink = NULL_SINK

    def begin_processing(self, peer_id: Hashable) -> bool:
        """Record a visit; return True when the peer processes local data.

        The first visit processes; re-visits (possible only with
        conservative region covers) merely route.  Under ``strict`` a
        re-visit raises :class:`DuplicateVisitError`.
        """
        if peer_id in self.processed:
            if self.strict and peer_id not in self.revisitable:
                raise DuplicateVisitError(f"peer {peer_id!r} visited twice")
            return False
        self.processed.add(peer_id)
        return True

    def on_forward(self) -> None:
        self.forward_messages += 1

    def on_response(self, count: int = 1) -> None:
        self.response_messages += count

    def on_answer(self, answer: Any, size: int) -> None:
        """A peer ships ``size`` qualifying tuples straight to the initiator."""
        self.collected_answers.append(answer)
        if size > 0:
            self.answer_messages += 1
            self.tuples_shipped += size

    # -- fault events ------------------------------------------------------

    def on_timeout(self) -> None:
        self.timeouts += 1

    def on_retry(self) -> None:
        self.retries += 1

    def on_reroute(self) -> None:
        self.reroutes += 1

    def on_drop(self) -> None:
        self.dropped_messages += 1

    def on_ack(self) -> None:
        self.ack_messages += 1

    def on_unreachable(self, volume: float) -> None:
        """A restriction region was abandoned after exhausting recovery."""
        self.unreachable_volume += volume

    def on_region_recovered(self) -> None:
        """A stranded region was re-issued against a promoted replica."""
        self.regions_recovered += 1

    def on_replica_read(self) -> None:
        """A dead peer's data was processed from a live replica."""
        self.replica_reads += 1

    def on_queue_wait(self, wait: int) -> None:
        """A message waited ``wait`` time units in a peer's service queue."""
        if wait > 0:
            self.queue_delay += wait

    def completeness(self) -> float:
        if self.restriction_volume <= 0.0:
            # A zero-volume restriction (point / degenerate region) offers
            # no denominator: any loss means completely unquantified.
            return 1.0 if self.unreachable_volume <= 0.0 else 0.0
        fraction = 1.0 - self.unreachable_volume / self.restriction_volume
        return max(0.0, min(1.0, fraction))

    def stats(self, latency: int) -> QueryStats:
        collected = QueryStats(
            latency=latency,
            processed=len(self.processed),
            forward_messages=self.forward_messages,
            response_messages=self.response_messages,
            answer_messages=self.answer_messages,
            tuples_shipped=self.tuples_shipped,
            queue_delay=self.queue_delay,
            timeouts=self.timeouts,
            retries=self.retries,
            reroutes=self.reroutes,
            dropped_messages=self.dropped_messages,
            ack_messages=self.ack_messages,
            unreachable_volume=self.unreachable_volume,
            regions_recovered=self.regions_recovered,
            replica_reads=self.replica_reads,
            completeness=self.completeness(),
        )
        if self.sink.enabled:
            self.sink.on_stats(collected)
        return collected
