"""Concurrent query engine: bit-identity, admission, budgets, deadlines.

Three pillars:

* **Bit-identity** — with one in-flight query the multiplexed engine
  must reproduce the fault-free reference, ``run_ripple``: answers,
  latencies and processed counts across every substrate in
  ``tests.netlib.OVERLAYS`` and all handlers (full ``QueryStats`` on
  MIDAS); under loss, churn and replicas a fully recovered query
  returns the reference answer.
  (``event_driven_ripple`` and ``resilient_ripple`` are one-job engine
  runs, so comparing the engine with them would compare it with itself.)
* **Admission control** — capacity and the bounded queue are honoured,
  overflow is shed with a typed outcome, policies order admission.
* **Graceful degradation** — deadline and per-query event budgets
  cancel exactly the offending query with accurate partial stats; no
  retry or replica recovery ever runs past a query's deadline; and a
  runaway query cannot starve its co-scheduled tenants.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, SkylineHandler, TopKHandler, run_ripple
from repro.net.context import QueryContext
from repro.net.eventsim import (EventSimulator, SimulationBudgetExceeded,
                                event_driven_ripple)
from repro.net.faults import FaultPlan
from repro.net.scheduler import (FifoPolicy, PriorityPolicy,
                                 QueryBudgetExceeded, QueryCompleted,
                                 QueryDeadlineExceeded, QueryEngine,
                                 QueryRejected, WeightedFairPolicy)
from repro.overlays.replication import ReplicaDirectory

from tests.netlib import ENGINE_CASES as NETWORKS
from tests.netlib import handlers_for, midas_network


class TestBitIdentityFaultFree:
    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    @pytest.mark.parametrize("r", [0, 2, 10 ** 9])
    def test_matches_both_single_query_engines(self, kind, r):
        build, dims, strict = NETWORKS[kind]
        for handler in handlers_for(dims):
            overlay = build(11)
            initiator = overlay.peers()[3]
            recursive = run_ripple(initiator, handler, r,
                                   restriction=overlay.domain(),
                                   strict=strict)
            engine = QueryEngine(capacity=3)
            job = engine.submit(initiator, handler, r,
                                restriction=overlay.domain(), strict=strict)
            outcome = engine.run()[job]
            assert isinstance(outcome, QueryCompleted)
            assert outcome.answer == recursive.answer
            assert outcome.stats.latency == recursive.stats.latency
            assert outcome.stats.processed == recursive.stats.processed

    @given(st.integers(0, 10 ** 6), st.integers(0, 4))
    @settings(max_examples=10, deadline=None)
    def test_fuzz_midas_topk(self, seed, r):
        overlay = midas_network(seed, peers=20, tuples=150)
        handler = TopKHandler(LinearScore([1, 0.5]), 3)
        initiator = overlay.random_peer(np.random.default_rng(seed))
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain())
        engine = QueryEngine()
        job = engine.submit(initiator, handler, r,
                            restriction=overlay.domain())
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryCompleted)
        assert outcome.answer == recursive.answer
        assert outcome.stats == recursive.stats


class TestBitIdentityUnderFaults:
    """A supervised lone job that recovers every region returns the
    fault-free reference's answer over the same peers."""

    @pytest.mark.parametrize("drop_prob,jitter", [(0.0, 0), (0.3, 2)])
    def test_matches_resilient_ripple_lossy(self, drop_prob, jitter):
        overlay = midas_network(9, peers=24, tuples=200)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[3]
        reference = run_ripple(initiator, handler, 1,
                               restriction=overlay.domain())
        engine = QueryEngine(
            faults=FaultPlan(seed=11, drop_prob=drop_prob, jitter=jitter))
        job = engine.submit(initiator, handler, 1,
                            restriction=overlay.domain())
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryCompleted)
        assert outcome.stats.completeness == 1.0
        assert outcome.answer == reference.answer
        assert outcome.stats.processed == reference.stats.processed
        if drop_prob == 0.0 and jitter == 0:
            assert outcome.stats.latency == reference.stats.latency
            assert outcome.stats.forward_messages \
                == reference.stats.forward_messages

    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_matches_resilient_ripple_churn_with_replicas(self, kind):
        build, dims, strict = NETWORKS[kind]
        handler = SkylineHandler(dims)
        overlay = build(7)
        initiator = overlay.peers()[1]
        reference = run_ripple(initiator, handler, 0,
                               restriction=overlay.domain(), strict=strict)
        plan = FaultPlan.churn(overlay, crash_fraction=0.2, seed=4)
        engine = QueryEngine(faults=plan,
                             replicas=ReplicaDirectory(overlay, copies=2))
        job = engine.submit(initiator, handler, 0,
                            restriction=overlay.domain())
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryCompleted)
        assert outcome.stats.completeness == 1.0
        assert outcome.answer == reference.answer


class TestAdmissionControl:
    def test_overflow_is_shed_with_typed_outcome(self):
        overlay = midas_network(5, peers=16, tuples=100)
        handler = SkylineHandler(2)
        engine = QueryEngine(capacity=1, queue_limit=1)
        jobs = [engine.submit(overlay.peers()[i], handler, 0,
                              restriction=overlay.domain(), strict=False)
                for i in range(3)]
        outcomes = engine.run()
        kinds = [type(outcomes[j]) for j in jobs]
        # One runs, one queues (both complete), the third is shed.
        assert kinds.count(QueryRejected) == 1
        assert kinds.count(QueryCompleted) == 2
        shed = next(o for o in outcomes.values()
                    if isinstance(o, QueryRejected))
        assert shed.reason == "queue-full"
        assert shed.stats.processed == 0
        assert shed.stats.completeness == 0.0
        assert shed.finished_at == shed.submitted_at

    def test_queued_query_completes_exactly(self):
        overlay = midas_network(5, peers=16, tuples=100)
        handler = TopKHandler(LinearScore([1, 1]), 3)
        initiator = overlay.peers()[2]
        solo = event_driven_ripple(initiator, handler, 1,
                                   restriction=overlay.domain())
        engine = QueryEngine(capacity=1, queue_limit=4)
        first = engine.submit(overlay.peers()[0], handler, 1,
                              restriction=overlay.domain())
        queued = engine.submit(initiator, handler, 1,
                               restriction=overlay.domain())
        outcomes = engine.run()
        assert isinstance(outcomes[first], QueryCompleted)
        result = outcomes[queued]
        assert isinstance(result, QueryCompleted)
        assert result.answer == solo.answer
        # Turnaround includes the admission wait; execution stats do not.
        assert result.stats.latency == solo.stats.latency
        assert result.turnaround >= result.stats.latency

    def test_priority_policy_orders_admission(self):
        overlay = midas_network(5, peers=16, tuples=100)
        handler = SkylineHandler(2)
        engine = QueryEngine(capacity=1, queue_limit=8,
                             policy=PriorityPolicy())
        jobs = {}
        for priority in (0, 1, 5, 3):
            jobs[priority] = engine.submit(
                overlay.peers()[priority], handler, 0,
                restriction=overlay.domain(), strict=False,
                priority=priority)
        outcomes = engine.run()
        finished = sorted(
            (outcome.finished_at, priority)
            for priority, job in jobs.items()
            for outcome in [outcomes[job]])
        # After the first (admitted immediately), highest priority first.
        assert [p for _, p in finished[1:]] == [5, 3, 1]

    def test_weighted_fair_policy_shares_admissions(self):
        policy = WeightedFairPolicy({"a": 2, "b": 1})
        overlay = midas_network(5, peers=24, tuples=100)
        handler = SkylineHandler(2)
        engine = QueryEngine(capacity=1, queue_limit=12, policy=policy)
        jobs = {}
        for i in range(12):
            cls = "a" if i < 6 else "b"
            jobs[engine.submit(overlay.peers()[i], handler, 0,
                               restriction=overlay.domain(), strict=False,
                               weight_class=cls)] = cls
        outcomes = engine.run()
        order = [jobs[j] for j, _ in sorted(
            outcomes.items(), key=lambda kv: (kv[1].finished_at, kv[0]))]
        # FIFO would drain all of "a" (submitted first) before any "b";
        # weighted fairness interleaves them roughly 2:1 instead.
        assert order != ["a"] * 6 + ["b"] * 6
        assert "b" in order[:4]
        assert 3 <= order[:6].count("a") <= 5

    def test_fifo_is_default_and_validates_bounds(self):
        assert isinstance(QueryEngine().policy, FifoPolicy)
        with pytest.raises(ValueError):
            QueryEngine(capacity=0)
        with pytest.raises(ValueError):
            QueryEngine(queue_limit=-1)
        with pytest.raises(ValueError):
            WeightedFairPolicy({"a": 0})

    @pytest.mark.parametrize("value", [0, -1])
    def test_per_query_event_budget_must_be_positive(self, value):
        with pytest.raises(ValueError, match="max_events_per_query"):
            QueryEngine(max_events_per_query=value)

    @pytest.mark.parametrize("entry", ["submit", "submit_at"])
    @pytest.mark.parametrize("field,value", [
        ("deadline", -5), ("max_events", 0), ("max_events", -1)])
    def test_job_budgets_are_refused_before_queueing(self, entry, field,
                                                     value):
        overlay = midas_network(5, peers=16, tuples=100)
        engine = QueryEngine()
        submit = engine.submit if entry == "submit" \
            else lambda *a, **kw: engine.submit_at(2, *a, **kw)
        with pytest.raises(ValueError, match=field):
            submit(overlay.peers()[0], SkylineHandler(2), 0,
                   restriction=overlay.domain(), **{field: value})
        assert engine.run() == {}

    def test_zero_deadline_is_a_budget_not_an_error(self):
        overlay = midas_network(5, peers=16, tuples=100)
        engine = QueryEngine()
        job = engine.submit(overlay.peers()[0], SkylineHandler(2), 0,
                            restriction=overlay.domain(), deadline=0)
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryDeadlineExceeded)
        assert outcome.turnaround == 0


class _RecordingSink:
    """Minimal TraceSink capturing every instrumentation timestamp."""

    enabled = True

    def __init__(self):
        self.times = []
        self._ids = iter(range(1, 10 ** 9))

    def begin_span(self, kind, peer, time, **attrs):
        self.times.append(time)
        return next(self._ids)

    def end_span(self, span, time, **attrs):
        self.times.append(time)

    def event(self, kind, time, **attrs):
        self.times.append(time)

    def on_stats(self, stats):
        pass


class TestDeadlines:
    def test_deadline_exceeded_returns_partial_stats(self):
        overlay = midas_network(3, peers=48, tuples=400)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[7]
        solo = event_driven_ripple(initiator, handler, 10 ** 9,
                                   restriction=overlay.domain())
        deadline = solo.stats.latency // 2
        assert deadline > 0
        engine = QueryEngine()
        job = engine.submit(initiator, handler, 10 ** 9,
                            restriction=overlay.domain(), deadline=deadline)
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryDeadlineExceeded)
        assert outcome.deadline == deadline
        assert outcome.turnaround == deadline
        assert 0 < outcome.stats.processed < solo.stats.processed
        assert outcome.stats.latency <= deadline

    def test_no_work_runs_past_the_deadline(self):
        """Retries and recovery respect the deadline budget: no span,
        event, or message is recorded after the cut-off."""
        overlay = midas_network(9, peers=24, tuples=200)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[3]
        plan = FaultPlan.churn(overlay, crash_fraction=0.3, seed=2,
                               drop_prob=0.3)
        sink = _RecordingSink()
        deadline = 20
        engine = QueryEngine(faults=plan, sink=sink)
        job = engine.submit(initiator, handler, 1,
                            restriction=overlay.domain(), deadline=deadline)
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryDeadlineExceeded)
        assert outcome.stats.retries > 0  # the plan really forced retries
        assert max(sink.times) <= deadline
        assert outcome.stats.latency <= deadline

    def test_deadline_can_expire_in_admission_queue(self):
        overlay = midas_network(3, peers=48, tuples=400)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        engine = QueryEngine(capacity=1, queue_limit=4)
        first = engine.submit(overlay.peers()[7], handler, 10 ** 9,
                              restriction=overlay.domain())
        starved = engine.submit(overlay.peers()[1], handler, 0,
                                restriction=overlay.domain(), deadline=1)
        outcomes = engine.run()
        assert isinstance(outcomes[first], QueryCompleted)
        result = outcomes[starved]
        assert isinstance(result, QueryDeadlineExceeded)
        assert result.stats.processed == 0
        assert result.stats.completeness == 0.0
        assert result.turnaround == 1

    def test_completed_queries_unaffected_by_neighbour_deadline(self):
        overlay = midas_network(3, peers=48, tuples=400)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        solo = event_driven_ripple(overlay.peers()[2], handler, 0,
                                   restriction=overlay.domain())
        doomed_solo = event_driven_ripple(overlay.peers()[7], handler, 0,
                                          restriction=overlay.domain())
        assert doomed_solo.stats.latency >= 2
        engine = QueryEngine(capacity=4)
        doomed = engine.submit(overlay.peers()[7], handler, 0,
                               restriction=overlay.domain(),
                               deadline=doomed_solo.stats.latency - 1)
        fine = engine.submit(overlay.peers()[2], handler, 0,
                             restriction=overlay.domain())
        outcomes = engine.run()
        assert isinstance(outcomes[doomed], QueryDeadlineExceeded)
        survivor = outcomes[fine]
        assert isinstance(survivor, QueryCompleted)
        assert survivor.answer == solo.answer
        assert survivor.stats.completeness == 1.0


class TestPerQueryBudgets:
    def test_runaway_query_cannot_kill_co_tenants(self):
        overlay = midas_network(3, peers=48, tuples=400)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        solo = event_driven_ripple(overlay.peers()[2], handler, 0,
                                   restriction=overlay.domain())
        engine = QueryEngine(capacity=4)
        # A parallel skyline floods every peer: far more than 10 events.
        runaway = engine.submit(overlay.peers()[7], SkylineHandler(2), 0,
                                restriction=overlay.domain(), max_events=10)
        fine = engine.submit(overlay.peers()[2], handler, 0,
                             restriction=overlay.domain())
        outcomes = engine.run()
        blown = outcomes[runaway]
        assert isinstance(blown, QueryBudgetExceeded)
        assert blown.cap == 10
        assert blown.stats.processed > 0  # partial work is reported
        survivor = outcomes[fine]
        assert isinstance(survivor, QueryCompleted)
        assert survivor.answer == solo.answer

    def test_standalone_per_query_budget_raises_with_query_id(self):
        sim = EventSimulator()
        ctx = QueryContext()
        ctx.query_id = "q-7"
        ctx.max_events = 3

        def tick():
            sim.schedule(1, tick, ctx)

        sim.schedule(0, tick, ctx)
        with pytest.raises(SimulationBudgetExceeded) as exc:
            sim.run()
        assert exc.value.cap == 3
        assert exc.value.executed == 4
        assert exc.value.query_id == "q-7"
        assert exc.value.stats is not None

    def test_unattributed_events_do_not_charge_budgets(self):
        sim = EventSimulator()
        ctx = QueryContext()
        ctx.max_events = 1
        ran = []
        sim.schedule(0, lambda: ran.append("free"))
        sim.schedule(1, lambda: ran.append("free too"))
        sim.run()
        assert ran == ["free", "free too"]
        assert ctx.events_executed == 0


class TestServiceQueues:
    def test_zero_service_time_is_bit_identical(self):
        overlay = midas_network(3)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[7]
        solo = event_driven_ripple(initiator, handler, 2,
                                   restriction=overlay.domain())
        engine = QueryEngine(service_time=0)
        job = engine.submit(initiator, handler, 2,
                            restriction=overlay.domain())
        outcome = engine.run()[job]
        assert isinstance(outcome, QueryCompleted)
        assert outcome.stats == solo.stats
        assert not engine.sim.busy_time

    def test_contention_charges_queue_delay(self):
        overlay = midas_network(3, peers=32, tuples=300)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[7]
        baseline = event_driven_ripple(initiator, handler, 0,
                                       restriction=overlay.domain())
        engine = QueryEngine(capacity=4, service_time=2)
        jobs = [engine.submit(initiator, handler, 0,
                              restriction=overlay.domain(), strict=False)
                for _ in range(3)]
        outcomes = engine.run()
        results = [outcomes[j] for j in jobs]
        assert all(isinstance(o, QueryCompleted) for o in results)
        # Identical fan-outs race for the same peers: someone waited.
        assert sum(o.stats.queue_delay for o in results) > 0
        assert max(o.stats.latency for o in results) \
            > baseline.stats.latency
        assert engine.sim.busy_time  # saturation accounting populated

    def test_single_query_with_service_time_pays_no_contention(self):
        sim = EventSimulator(service_time=3)
        order = []
        sim.deliver("p", 1, lambda: order.append(sim.now))
        sim.deliver("p", 1, lambda: order.append(sim.now))
        sim.deliver("p", 1, lambda: order.append(sim.now))
        sim.run()
        # FIFO service every 3 units: arrivals at 1 serve at 1, 4, 7.
        assert order == [1, 4, 7]
        assert sim.busy_time["p"] == 9

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            EventSimulator(service_time=-1)
