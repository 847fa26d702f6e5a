"""An event-driven, message-level execution of Algorithm 3.

The depth-first driver (:func:`repro.core.framework._process`) derives
latency analytically (parallel branches take the max, sequential
iterations the sum) — fast, but the cost model is baked into the
traversal.  This module drives the *same* per-peer step,
:class:`~repro.core.framework._Visit`, from a discrete-event queue
instead: peers are actors exchanging timestamped messages, each query
forward taking one time unit, and latency falls out of the timestamps.
What a peer does on a visit is therefore shared with the other engines
by construction (and checked against the centralized oracles); what
`tests/net/test_eventsim.py` cross-validates by running the same query
both ways is the *schedule* and the paper's cost model — answers, visited
sets, message counts and latencies must agree.

Conventions matching Section 3.2's analysis (and the recursive engine):
query forwards cost 1 hop; state responses and answer deliveries are
accounted as messages but add no propagation delay (Lemma 2 counts only
the forwards; see :mod:`repro.net.context`).

Fault tolerance: constructing the simulator with a
:class:`~repro.net.faults.FaultPlan` switches every forward to a
*supervised attempt* (:class:`_Attempt`): the plan is consulted on every
delivery (drops, crash windows, jitter), lost forwards are detected by
acknowledgement timeouts and retried with exponential backoff, lost
responses are recovered by a liveness watchdog that asks the remote peer
to retransmit, dead link targets are routed around through alternate live
coordinators (:func:`~repro.net.routing.route_around`), and regions that
remain unreachable are abandoned with their volume accounted so the query
terminates with an explicit completeness bound.  With a zero-fault plan
the supervised execution reproduces the plain one exactly.  The entry
point is :func:`repro.net.faults.resilient_ripple`.

One way onto the queue: :class:`~repro.net.scheduler.QueryEngine` is the
only code that builds a simulator and launches a query's root visit.
:func:`event_driven_ripple` and :func:`~repro.net.faults.resilient_ripple`
each run one job on a fresh one-slot engine.

Both the plain and the supervised paths invoke the query handlers, which
back their per-peer reductions with the
:class:`~repro.common.store.LocalStore` computation cache — so a retried
or re-routed forward that re-processes a peer reuses the already-computed
local skyline / score index instead of reducing the array again.

Concurrency (see :mod:`repro.net.scheduler` and ``docs/LOAD.md``): the
simulator multiplexes many :class:`~repro.net.context.QueryContext`\\ s
over one event queue.  Every scheduled event may carry the context it
works for; the run loop attributes executed events to their query
(per-query event budgets), drops events of cancelled queries (a query is
cancelled when it settles: completed, past its deadline or over its
budget), and — when a per-peer ``service_time`` is configured — funnels
message handling through per-peer FIFO service queues so queueing delay
at hot peers becomes part of the latency model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

from ..core.framework import PeerLike, _Visit, physical_id
from ..core.handler import QueryHandler
from ..core.regions import Region, region_volume
from ..obs.trace import TraceSink
from .context import QueryContext, QueryResult, QueryStats
from .routing import route_around

if TYPE_CHECKING:  # pragma: no cover - type-only (avoids an import cycle)
    from ..overlays.replication import PromotedPeer, ReplicaDirectory
    from .detector import FailureDetector
    from .faults import FaultPlan

__all__ = ["EventSimulator", "SimulationBudgetExceeded",
           "event_driven_ripple", "DEFAULT_MAX_EVENTS"]

#: Default event budget: far above any legitimate query (the largest
#: benchmark networks execute a few hundred thousand events) but low
#: enough that a fault-induced retry storm or a scheduling bug fails
#: fast instead of spinning forever.
DEFAULT_MAX_EVENTS = 5_000_000

#: The supervision protocol's timings (docs/ALGORITHMS.md, "Fault
#: model"), in simulated time units.  A forward's first ack deadline is
#: ``ACK_TIMEOUT`` past its delivery delay and doubles per resend, up to
#: ``MAX_RETRIES`` resends; an acked forward's liveness watchdog fires
#: after ``WATCHDOG_BASE`` units, doubling, at most ``MAX_WATCHDOGS``
#: times; a failed forward's lineage is re-routed around dead peers at
#: most ``MAX_REROUTE_DEPTH`` times.
ACK_TIMEOUT = 4
MAX_RETRIES = 3
WATCHDOG_BASE = 8
MAX_WATCHDOGS = 24
MAX_REROUTE_DEPTH = 2


class SimulationBudgetExceeded(RuntimeError):
    """The simulator executed more events than its budget allows.

    A loud safety net against retry storms and self-rescheduling bugs.
    Carries the budget (``cap``), how many events actually executed
    (``executed``), and — when the event that blew it worked for a
    :class:`~repro.net.context.QueryContext` — that query's partial
    :class:`~repro.net.context.QueryStats` at the moment the budget blew,
    so callers can report how far the degraded query got instead of
    losing all observability.  Subclasses ``RuntimeError`` for backward
    compatibility with pre-existing ``except RuntimeError`` handlers.

    Budgets are per query where possible: a context with ``max_events``
    set carries its own cap, and the exception then also names the
    offending query (``query_id``) so a concurrent scheduler can shed
    exactly the runaway instead of killing its co-scheduled tenants.
    """

    def __init__(self, message: str, *, cap: int, executed: int,
                 stats: "QueryStats | None" = None,
                 query_id: Hashable | None = None) -> None:
        super().__init__(message)
        self.cap = cap
        self.executed = executed
        self.stats = stats
        self.query_id = query_id


class EventSimulator:
    """A minimal discrete-event engine: (time, fifo) ordered callbacks.

    ``faults`` (a :class:`~repro.net.faults.FaultPlan`) enables the
    supervised delivery machinery; ``max_events`` caps how many events
    :meth:`run` may execute before raising ``RuntimeError``.

    ``service_time`` models per-peer processing capacity: each message a
    peer handles occupies it for that many time units, and concurrent
    arrivals wait in the peer's FIFO service queue (:meth:`service`).
    The default ``0`` keeps the classic infinite-capacity model and is
    bit-identical to the pre-multiplexing engine.
    """

    def __init__(self, faults: "FaultPlan | None" = None, *,
                 max_events: int | None = DEFAULT_MAX_EVENTS,
                 service_time: int = 0) -> None:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self._queue: list[tuple[int, int, Callable[[], None],
                                QueryContext | None]] = []
        self._counter = itertools.count()
        self.now = 0
        self.faults = faults
        self.max_events = max_events
        self.service_time = service_time
        #: Per-peer FIFO service reservations: peer id -> time its queue
        #: drains.  Empty (and never consulted) when ``service_time == 0``.
        self._busy_until: dict[Hashable, int] = {}
        #: Per-peer cumulative busy time; ``busy / elapsed`` is the peer's
        #: saturation, surfaced by the load benchmarks and the obs layer.
        self.busy_time: dict[Hashable, int] = {}
        #: Concurrent-scheduler hook: called as ``on_overrun(ctx, reason)``
        #: when a context blows its deadline or per-query event budget.
        #: Without a hook a blown per-query budget raises
        #: :class:`SimulationBudgetExceeded` like the global cap does.
        self.on_overrun: Callable[[QueryContext, str], None] | None = None
        self._messages = 0
        self._request_ids = itertools.count()
        #: Supervised-request registry: request id -> :class:`_RequestEntry`.
        #: Models the remote peer remembering a request so duplicate
        #: forwards are suppressed and completed results can be replayed.
        self.requests: dict[int, _RequestEntry] = {}
        #: Self-healing attachments (set by resilient_ripple when a
        #: ReplicaDirectory is supplied): the promotion source and the
        #: failure detector steering proactive link patching.
        self.replicas: "ReplicaDirectory | None" = None
        self.detector: "FailureDetector | None" = None

    def new_message_id(self) -> int:
        """Sequence number identifying one message delivery (fault draws)."""
        return self.new_message_ids(1)

    def new_message_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive message ids; returns the first."""
        first = self._messages
        self._messages = first + count
        return first

    def new_request_id(self) -> int:
        return next(self._request_ids)

    def schedule(self, delay: int, action: Callable[[], None],
                 ctx: QueryContext | None = None) -> None:
        """Enqueue ``action`` after ``delay`` time units.

        ``ctx`` attributes the event to one query: the run loop charges
        it against that query's event budget and silently drops it if the
        query has been cancelled.  Unattributed events (detector sweeps,
        deferred admissions) charge only the simulator-wide cap.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue,
                       (self.now + delay, next(self._counter), action, ctx))

    def deliver(self, peer_id: Hashable, delay: int,
                action: Callable[[], None],
                ctx: QueryContext | None = None) -> None:
        """Schedule a message arrival at ``peer_id``, then serve it.

        With ``service_time == 0`` this is exactly :meth:`schedule`; with
        a service rate configured, the arrival joins the target peer's
        FIFO service queue (see :meth:`service`), so congestion at hot
        peers stretches the query's critical path.
        """
        if self.service_time <= 0:
            self.schedule(delay, action, ctx)
            return
        self.schedule(delay, lambda: self.service(peer_id, action, ctx),
                      ctx)

    def service(self, peer_id: Hashable, action: Callable[[], None],
                ctx: QueryContext | None = None) -> None:
        """Run ``action`` through ``peer_id``'s FIFO service queue.

        The peer serves one message per ``service_time`` time units;
        an arrival finding the peer busy waits until the reservations
        ahead of it drain (the wait is charged to the owning query's
        ``queue_delay``).  A zero service time serves synchronously —
        the infinite-capacity model the single-query engines assume.
        """
        if self.service_time <= 0:
            action()
            return
        start = max(self.now, self._busy_until.get(peer_id, 0))
        wait = start - self.now
        self._busy_until[peer_id] = start + self.service_time
        self.busy_time[peer_id] = (self.busy_time.get(peer_id, 0)
                                   + self.service_time)
        if wait <= 0:
            action()
            return
        if ctx is not None:
            ctx.on_queue_wait(wait)
        self.schedule(wait, action, ctx)

    def _overrun(self, owner: QueryContext, reason: str) -> None:
        """Cancel ``owner`` and notify the scheduler hook, if any."""
        owner.cancelled = True
        if self.on_overrun is not None:
            self.on_overrun(owner, reason)

    def run(self) -> int:
        """Drain the queue; returns the time of the last event.

        Raises :class:`SimulationBudgetExceeded` (a ``RuntimeError``) when
        more than the constructor's ``max_events`` events execute — a
        loud safety net against retry storms and self-rescheduling bugs.
        When the offending event works for a query the exception carries
        that query's partial stats.

        Per-query enforcement: each executed event is attributed to the
        context it was scheduled for.  Events of a cancelled (settled)
        query are dropped unexecuted; an event past its query's
        ``deadline`` cancels the query instead of running; and a query
        whose own ``max_events`` budget blows is cancelled through
        :attr:`on_overrun` when a scheduler is listening, else raises
        with the per-query cap and ``query_id``.
        """
        cap = self.max_events
        last = 0
        executed = 0
        while self._queue:
            time, _, action, owner = heapq.heappop(self._queue)
            if owner is not None and owner.cancelled:
                continue  # in-flight work of a settled query: drop it
            executed += 1
            if cap is not None and executed > cap:
                stats = None if owner is None else owner.stats(self.now)
                raise SimulationBudgetExceeded(
                    f"EventSimulator exceeded its event budget of {cap}; "
                    "likely a retry storm or a scheduling bug "
                    "(raise max_events if the workload is legitimate)",
                    cap=cap, executed=executed, stats=stats)
            if owner is not None:
                if owner.deadline is not None and time > owner.deadline:
                    self._overrun(owner, "deadline")
                    continue
                owner.events_executed += 1
                qcap = owner.max_events
                if qcap is not None and owner.events_executed > qcap:
                    if self.on_overrun is not None:
                        self._overrun(owner, "budget")
                        continue
                    owner.cancelled = True
                    raise SimulationBudgetExceeded(
                        f"query {owner.query_id!r} exceeded its per-query "
                        f"event budget of {qcap}; likely a retry storm "
                        "(raise the query's max_events if legitimate)",
                        cap=qcap, executed=owner.events_executed,
                        stats=owner.stats(self.now),
                        query_id=owner.query_id)
            self.now = last = time
            action()
        return last


@dataclass
class _RequestEntry:
    """A remote peer's memory of one supervised request.

    ``incarnation`` is the target's crash count when it accepted the
    request — a later mismatch means the serving execution died with the
    peer (amnesia) and the request must start over.  ``result`` caches
    the response once the remote subtree completes, so duplicate and
    retransmit-requesting forwards replay it instead of re-processing.
    """

    incarnation: int
    result: list[Any] | None = None


class _Invocation:
    """One :class:`~repro.core.framework._Visit` driven by the event queue.

    Created when the query is *delivered* to the peer (so the visit's
    arrival time is the delivery time).  A sequential visit forwards over
    one link and suspends until :meth:`_settled` resumes it; a parallel
    visit forwards over every relevant link at once and finishes when the
    last one settles.  Under a fault plan each forward is a supervised
    :class:`_Attempt` and the invocation checks its own peer's liveness
    before resuming (crash-stop semantics: a crashed peer loses in-flight
    state).
    """

    __slots__ = ("sim", "visit", "on_done", "route_depth", "outstanding",
                 "_birth", "_gone", "_answered")

    def __init__(self, sim: EventSimulator, visit: _Visit,
                 on_done: Callable[[list[Any]], None],
                 route_depth: int = 0) -> None:
        self.sim = sim
        self.visit = visit
        self.on_done = on_done
        #: How many times this subtree's lineage was already re-routed
        #: around a failure; bounds recovery recursion (see
        #: MAX_REROUTE_DEPTH).
        self.route_depth = route_depth
        #: Forwards not yet answered or abandoned.
        self.outstanding = 0
        #: Crash-stop bookkeeping (consulted only under a fault plan): the
        #: executing machine's incarnation at start, whether the peer has
        #: been observed dead, and whether its local answer shipped.
        self._birth = 0
        self._gone = False
        self._answered = False

    def start(self) -> None:
        sim, visit = self.sim, self.visit
        faults = sim.faults
        if faults is not None:
            ctx, peer = visit.ctx, visit.peer
            # Liveness and incarnation track the *machine* doing the work:
            # a promoted replica holder executes under the dead owner's
            # logical peer_id but crashes (or not) as itself.
            machine = physical_id(peer)
            self._birth = faults.incarnation(machine, sim.now)
            if visit.processes and machine != peer.peer_id:
                ctx.on_replica_read()
                if ctx.sink.enabled:
                    ctx.sink.event("replica-read", sim.now, span=visit.span,
                                   physical=machine)
        self._advance()

    def _dead(self) -> bool:
        """Whether this peer crashed since the invocation started.

        A crashed peer forgets its in-flight state (amnesia); if its local
        answer never shipped, the peer is un-marked from the processed set
        so a later retry may re-process its data.
        """
        faults = self.sim.faults
        if faults is None:
            return False
        if self._gone:
            return True
        now = self.sim.now
        pid = physical_id(self.visit.peer)
        if (not faults.alive(pid, now)
                or faults.incarnation(pid, now) != self._birth):
            self._gone = True
            if self.visit.processes and not self._answered:
                self.visit.ctx.processed.discard(self.visit.peer.peer_id)
            return True
        return False

    def _advance(self) -> None:
        """Forward over the next link (sequential) or all of them
        (parallel); finish once nothing is outstanding."""
        visit = self.visit
        for target, sub in iter(visit.next_forward, None):
            self.outstanding += 1
            self._forward(target, sub)
            if visit.r > 0:
                return  # suspended until the response arrives
        if self.outstanding == 0:
            upstream = visit.finish(self.sim.now)
            self._answered = True
            # responses travel without propagation delay (see module doc)
            self.on_done(upstream)

    def _forward(self, target: PeerLike, sub: Region) -> None:
        """Send ``sub`` to ``target``: plain one-hop delivery, or a
        supervised attempt when a fault plan is installed."""
        if self.sim.faults is not None:
            _Attempt(self, target, sub).send()
            return
        self.visit.note_forward(target, self.sim.now)
        self.sim.deliver(physical_id(target), 1,
                         self.spawn(target, sub, self._settled),
                         self.visit.ctx)

    def spawn(self, target: PeerLike, sub: Region,
              on_done: Callable[[list[Any]], None], via_span: int = 0,
              route_depth: int = 0) -> Callable[[], None]:
        """The delivery action that starts ``target``'s visit on arrival."""
        return lambda: _Invocation(
            self.sim, self.visit.child(target, sub, self.sim.now, via_span),
            on_done, route_depth).start()

    def _settled(self, states: list[Any] | None = None) -> None:
        """A forward came back with ``states``, or (``None``) its region
        was abandoned as unreachable; either way move on."""
        if self._dead():
            return
        self.outstanding -= 1
        if states is not None:
            self.visit.fold(states, self.sim.now)
        self._advance()


class _Attempt:
    """One fault-supervised forward of a restriction region to a target.

    Lifecycle::

        send -> deliver (plan consulted: drop? target dead? jitter)
             -> ack | ack-timeout (exponential backoff, bounded retries)
             -> watchdog while the remote subtree runs
                  (detects crash/amnesia; asks for retransmits of lost
                   responses; doubling period so it never throttles)
             -> response accepted | failure
        failure -> re-route the region through an alternate live
                   coordinator (route_around), bounded in depth
                -> promote a live replica of the target and re-issue
                   the region against it (see repro.overlays.replication)
                -> abandon: account the region's volume as unreachable

    When a ReplicaDirectory and a FailureDetector are attached to the
    simulator, an attempt whose target the detector has already declared
    dead is *proactively* redirected to the promoted stand-in before the
    first forward (the patched-link fast path), and ack timeouts against
    detector-confirmed-dead targets skip the pointless retry ladder.

    Duplicate forwards are suppressed through the simulator's request
    registry; a completed remote execution replays its cached response
    instead of re-processing (at-least-once delivery, exactly-once
    processing per peer incarnation).
    """

    __slots__ = ("parent", "sim", "ctx", "faults", "target", "sub",
                 "route_depth", "request_id", "tries", "watchdogs", "gen",
                 "acked", "done", "extra_delay", "tried", "span")

    def __init__(self, parent: _Invocation, target: PeerLike, sub: Region,
                 route_depth: int | None = None, extra_delay: int = 0,
                 tried: frozenset[Hashable] = frozenset()) -> None:
        faults = parent.sim.faults
        assert faults is not None, "attempts exist only under a fault plan"
        self.parent = parent
        self.sim = parent.sim
        self.ctx = parent.visit.ctx
        self.faults: "FaultPlan" = faults
        self.target = target
        self.sub = sub
        self.route_depth = parent.route_depth if route_depth is None \
            else route_depth
        self.request_id = self.sim.new_request_id()
        self.tries = 0
        self.watchdogs = 0
        self.gen = 0  # bumped to invalidate stale timers
        self.acked = False
        self.done = False
        #: Relay hops a re-routed forward spends reaching its coordinator.
        self.extra_delay = extra_delay
        #: Physical ids of replica holders this region was already issued
        #: against; bounds replica recovery (the holder pool only shrinks).
        self.tried = tried
        #: Trace span covering this attempt's whole supervised lifetime.
        self.span = 0

    def _event(self, kind: str, **attrs: Any) -> None:
        if self.ctx.sink.enabled:
            self.ctx.sink.event(kind, self.sim.now, span=self.span, **attrs)

    # -- forward + ack ----------------------------------------------------

    def send(self) -> None:
        if self.tries == 0:
            if self.ctx.sink.enabled:
                visit = self.parent.visit
                self.span = self.ctx.sink.begin_span(
                    "attempt", self.target.peer_id, self.sim.now,
                    parent=visit.span or None, region=repr(self.sub),
                    r=visit.child_r, route_depth=self.route_depth)
            self._maybe_redirect()
        self.tries += 1
        if self.tries > 1:
            self.ctx.on_retry()
            self._event("retry", attempt=self.tries)
        self.ctx.on_forward()
        self._event("forward", target=self.target.peer_id)
        self.acked = False
        self.gen += 1
        gen = self.gen
        message = self.sim.new_message_id()
        delay = self.extra_delay + self.faults.forward_delay(message)
        self.sim.schedule(delay, lambda: self._deliver(message), self.ctx)
        # The deadline rides on top of the actual delay so jitter can
        # never fire a spurious timeout; backoff doubles per attempt.
        deadline = delay + (ACK_TIMEOUT << (self.tries - 1))
        self.sim.schedule(deadline, lambda: self._ack_timeout(gen), self.ctx)

    def _maybe_redirect(self) -> None:
        """Patched-link fast path: the failure detector already declared
        the target dead, so forward straight to its promoted stand-in."""
        detector = self.sim.detector
        if detector is None \
                or not detector.is_dead(physical_id(self.target)):
            return
        promoted = self._promote(proactive=True)
        if promoted is not None:
            self.target = promoted
            self.tried = self.tried | {promoted.physical_id}

    def _promote(self, proactive: bool) -> "PromotedPeer | None":
        """A live, not yet tried replica holder standing in for the
        target (same logical peer_id, mirrored store, same link table)."""
        replicas = self.sim.replicas
        if replicas is None:
            return None
        now = self.sim.now
        promoted = replicas.promote(
            self.target.peer_id,
            lambda pid: self.faults.alive(pid, now),
            exclude=self.tried)
        if promoted is not None:
            self.ctx.on_region_recovered()
            self._event("region-recovered", proactive=proactive,
                        stand_in=promoted.physical_id)
        return promoted

    def _drop(self, what: str) -> None:
        self.ctx.on_drop()
        self._event("drop", what=what)

    def _deliver(self, message: int) -> None:
        if self.done:
            return  # stale retransmission of an already-settled request
        faults = self.faults
        if faults.drops(message):
            self._drop("forward")
            return
        now = self.sim.now
        machine = physical_id(self.target)
        if not faults.alive(machine, now):
            self._drop("dead-target")  # swallowed by a dead peer
            return
        self._send_ack()
        incarnation = faults.incarnation(machine, now)
        entry = self.sim.requests.get(self.request_id)
        if entry is not None and entry.incarnation == incarnation:
            if entry.result is not None:
                self._respond(entry.result)  # duplicate, already completed
            return  # in progress: the running invocation will respond
        self.sim.requests[self.request_id] = _RequestEntry(incarnation)
        self.sim.service(machine, self.parent.spawn(
            self.target, self.sub, self._child_finished, self.span,
            self.route_depth), self.ctx)

    def _send_ack(self) -> None:
        self.ctx.on_ack()
        self._event("ack")
        if self.faults.drops(self.sim.new_message_id()):
            self._drop("ack")  # lost ack: the sender will retry, we dedup
            return
        if self.done or self.acked or self.parent._dead():
            return
        self.acked = True
        self._arm_watchdog()

    def _ack_timeout(self, gen: int) -> None:
        if self.done or self.acked or gen != self.gen:
            return
        if self.parent._dead():
            return
        self._retry_or_fail("ack")

    def _retry_or_fail(self, what: str) -> None:
        """The timeout ladder: a detector-confirmed-dead target fails at
        once (retrying it is pointless), else resend while retries are
        left, else fail."""
        self.ctx.on_timeout()
        detector = self.sim.detector
        confirmed_dead = (detector is not None
                          and detector.is_dead(physical_id(self.target)))
        self._event("timeout", what=what, detector_dead=confirmed_dead)
        if not confirmed_dead and self.tries <= MAX_RETRIES:
            self.send()
        else:
            self._fail()

    # -- liveness watchdog ------------------------------------------------

    def _arm_watchdog(self) -> None:
        gen = self.gen
        period = WATCHDOG_BASE << min(self.watchdogs, 16)
        self.sim.schedule(period, lambda: self._watchdog(gen), self.ctx)

    def _watchdog(self, gen: int) -> None:
        if self.done or gen != self.gen:
            return
        if self.parent._dead():
            return
        self.watchdogs += 1
        if self.watchdogs > MAX_WATCHDOGS:
            self.ctx.on_timeout()
            self._event("timeout", what="watchdog-exhausted")
            self._fail()
            return
        faults = self.faults
        now = self.sim.now
        pid = physical_id(self.target)
        entry = self.sim.requests.get(self.request_id)
        if (entry is None or not faults.alive(pid, now)
                or entry.incarnation != faults.incarnation(pid, now)):
            # The remote peer crashed (and possibly recovered with
            # amnesia): the in-flight execution is gone, start over.
            self._retry_or_fail("remote-crash")
            return
        if entry.result is not None:
            self._respond(entry.result)  # response was lost: retransmit
            if self.done:
                return
        self._arm_watchdog()

    # -- response ---------------------------------------------------------

    def _child_finished(self, states: list[Any]) -> None:
        entry = self.sim.requests.get(self.request_id)
        if entry is not None:
            entry.result = list(states)
        self._respond(states)

    def _respond(self, states: list[Any]) -> None:
        if self.done:
            return
        if self.faults.drops(self.sim.new_message_id()):
            self._drop("response")  # a watchdog will ask again
            return
        if self.parent._dead():
            return
        self._settle("ok")
        self.parent._settled(list(states))

    def _settle(self, status: str) -> None:
        """This attempt is over: stale timers die with the generation."""
        self.done = True
        self.gen += 1
        if self.ctx.sink.enabled:
            self.ctx.sink.end_span(self.span, self.sim.now, status=status,
                                   tries=self.tries)

    # -- failure ----------------------------------------------------------

    def _fail(self) -> None:
        """Retries exhausted: route around the target, else promote a
        replica of its region, else abandon."""
        faults = self.faults
        if self.route_depth < MAX_REROUTE_DEPTH:
            now = self.sim.now
            alternate, hops = route_around(
                self.parent.visit.peer, self.sub,
                lambda pid: faults.alive(pid, now),
                exclude=(self.target.peer_id,))
            if alternate is not None:
                self.ctx.on_reroute()
                self._event("reroute", via=alternate.peer_id,
                            relay_hops=max(0, hops - 1))
                self._relay("rerouted", alternate, self.route_depth + 1,
                            max(0, hops - 1), self.tried)
                return
        # ``tried`` accumulates every holder already consumed by this
        # region's recovery lineage, so the promotion pool strictly
        # shrinks and recovery terminates.
        promoted = self._promote(proactive=False)
        if promoted is not None:
            self._relay("recovered-via-replica", promoted, self.route_depth,
                        0, self.tried | {promoted.physical_id})
            return
        volume = region_volume(self.sub)
        self.ctx.on_unreachable(volume)
        self._event("unreachable", volume=volume)
        self._settle("abandoned")
        self.parent._settled()

    def _relay(self, status: str, target: PeerLike, route_depth: int,
               extra_delay: int, tried: frozenset[Hashable]) -> None:
        """Settle as ``status`` and re-issue the region against ``target``."""
        self._settle(status)
        _Attempt(self.parent, target, self.sub, route_depth, extra_delay,
                 tried).send()


def event_driven_ripple(
    initiator: PeerLike,
    handler: QueryHandler,
    r: int = 0,
    *,
    restriction: Region,
    strict: bool = True,
    sink: TraceSink | None = None,
) -> QueryResult:
    """Run Algorithm 3 through the discrete-event engine.

    Semantically identical to :func:`repro.core.framework.run_ripple`;
    latency falls out of message timestamps instead of the recursive
    max/sum computation.  For execution under injected faults see
    :func:`repro.net.faults.resilient_ripple`.  ``sink`` attaches a trace
    recorder (see :mod:`repro.obs.trace`).  Runs as the one job of a
    fresh :class:`~repro.net.scheduler.QueryEngine`.
    """
    from .scheduler import _run_one_job  # the scheduler imports this module
    return _run_one_job(initiator, handler, r, restriction=restriction,
                        strict=strict, sink=sink)
