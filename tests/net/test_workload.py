"""Open-loop workload driver: determinism, arrival process, reporting.

The centrepiece is the concurrent-run determinism property (a hypothesis
test over seeds and engine shapes): two runs of the same seeded workload
— same arrivals, same fault plan — must produce identical per-query
answers, stats, and shed decisions, across MIDAS / Chord / CAN and the
topk/skyline mix.  That property is what makes the committed
``BENCH_load.json`` baseline a meaningful CI gate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (CacheDirectory, CanOverlay, ChordOverlay, MidasOverlay,
                   WeightedFairPolicy)
from repro.net.faults import FaultPlan
from repro.net.scheduler import (QueryCompleted, QueryEngine,
                                 QueryRejected)
from repro.net.workload import (WorkloadReport, WorkloadSpec,
                                poisson_arrivals, run_workload)


def midas_network(seed, peers=24, tuples=200):
    rng = np.random.default_rng(seed)
    data = rng.random((tuples, 2)) * 0.999
    overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
    overlay.load(data)
    overlay.grow_to(peers)
    return overlay


def chord_network(seed, peers=24, tuples=200):
    overlay = ChordOverlay(size=peers, seed=seed)
    overlay.load(np.random.default_rng(seed).random((tuples, 1)) * 0.999)
    return overlay


def can_network(seed, peers=24, tuples=200):
    rng = np.random.default_rng(seed)
    data = rng.random((tuples, 2)) * 0.999
    overlay = CanOverlay(2, size=1, seed=seed)
    overlay.load(data)
    overlay.grow_to(peers)
    return overlay


NETWORKS = {"midas": midas_network, "chord": chord_network,
            "can": can_network}


class TestPoissonArrivals:
    def test_deterministic_and_monotone(self):
        spec = WorkloadSpec(queries=200, rate=0.5, seed=9)
        one = poisson_arrivals(spec)
        two = poisson_arrivals(spec)
        assert one == two
        assert len(one) == 200
        assert all(b >= a for a, b in zip(one, one[1:]))
        assert poisson_arrivals(WorkloadSpec(queries=200, rate=0.5,
                                             seed=10)) != one

    def test_rate_shapes_the_schedule(self):
        slow = poisson_arrivals(WorkloadSpec(queries=100, rate=0.1, seed=1))
        fast = poisson_arrivals(WorkloadSpec(queries=100, rate=10.0, seed=1))
        assert fast[-1] < slow[-1]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(queries=0, rate=1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(queries=1, rate=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(queries=1, rate=1.0, topk_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(queries=1, rate=1.0, rs=())


def _signature(outcomes):
    """Everything determinism must pin: per-query disposition, full
    stats, and (for completed queries) the exact answer."""
    signature = {}
    for job_id, outcome in sorted(outcomes.items()):
        answer = outcome.answer if isinstance(outcome, QueryCompleted) \
            else None
        signature[job_id] = (type(outcome).__name__, outcome.submitted_at,
                             outcome.finished_at, outcome.stats, answer)
    return signature


class TestConcurrentDeterminism:
    @pytest.mark.parametrize("kind", sorted(NETWORKS))
    def test_identical_runs_across_overlays(self, kind):
        spec = WorkloadSpec(queries=40, rate=0.6, seed=5, deadline=500,
                            strict=False, rs=(0, 1))

        def run_once():
            overlay = NETWORKS[kind](3)
            plan = FaultPlan.churn(overlay, crash_fraction=0.15, seed=8,
                                   drop_prob=0.1)
            engine = QueryEngine(capacity=3, queue_limit=6, faults=plan,
                                 service_time=1)
            return run_workload(overlay, spec, engine=engine)

        first, second = run_once(), run_once()
        assert _signature(first.outcomes) == _signature(second.outcomes)
        assert first.as_dict() == second.as_dict()

    @given(seed=st.integers(0, 10 ** 6), capacity=st.integers(1, 4),
           queue_limit=st.integers(0, 6), drop=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_fuzz_determinism(self, seed, capacity, queue_limit, drop):
        spec = WorkloadSpec(queries=25, rate=0.8, seed=seed, deadline=400,
                            strict=False, priorities=(0, 1, 2),
                            classes=(("gold", 3), ("bronze", 1)))

        def run_once():
            overlay = midas_network(4)
            plan = FaultPlan(seed=seed, drop_prob=0.2 if drop else 0.0)
            engine = QueryEngine(capacity=capacity,
                                 queue_limit=queue_limit, faults=plan,
                                 policy=WeightedFairPolicy({"gold": 3,
                                                            "bronze": 1}),
                                 service_time=1)
            return run_workload(overlay, spec, engine=engine)

        first, second = run_once(), run_once()
        assert _signature(first.outcomes) == _signature(second.outcomes)


class TestWorkloadReport:
    def _run(self, *, capacity=2, queue_limit=4, rate=0.8, queries=60,
             service_time=1):
        overlay = midas_network(3)
        spec = WorkloadSpec(queries=queries, rate=rate, seed=7,
                            strict=False)
        engine = QueryEngine(capacity=capacity, queue_limit=queue_limit,
                             service_time=service_time)
        return run_workload(overlay, spec, engine=engine)

    def test_outcomes_partition_submissions(self):
        report = self._run()
        assert report.submitted == 60
        assert (report.completed + report.shed + report.deadline_exceeded
                + report.budget_exceeded) == report.submitted
        assert report.errors == 0
        assert len(report.outcomes) == report.submitted

    def test_percentiles_are_exact_order_statistics(self):
        report = self._run()
        assert report.completed > 0
        assert report.latencies == tuple(sorted(report.latencies))
        assert report.p50 in [float(v) for v in report.latencies]
        assert report.p99 in [float(v) for v in report.latencies]
        assert report.p50 <= report.p99 <= float(report.latencies[-1])
        assert math.isfinite(report.p99)

    def test_admitted_queries_stay_complete(self):
        report = self._run()
        assert report.admitted_completeness == 1.0
        for outcome in report.outcomes.values():
            if isinstance(outcome, QueryCompleted):
                assert outcome.stats.completeness == 1.0
            elif isinstance(outcome, QueryRejected):
                assert outcome.stats.completeness == 0.0

    def test_overload_sheds_and_calm_does_not(self):
        overloaded = self._run(capacity=1, queue_limit=1, rate=2.0)
        assert overloaded.shed_rate > 0.0
        calm = self._run(capacity=8, queue_limit=60, rate=0.01)
        assert calm.shed_rate == 0.0
        assert calm.completed == calm.submitted

    def test_cache_counters_are_this_runs_own(self):
        """Two runs over one directory: each reports what it added, so
        the second never counts the first run's hits."""
        overlay = midas_network(3, peers=64, tuples=400)
        directory = CacheDirectory(overlay)
        spec = WorkloadSpec(queries=30, rate=0.5, seed=7, population=4,
                            strict=False)
        hits = []
        for _ in range(2):
            before = directory.snapshot()
            report = run_workload(overlay, spec, engine=QueryEngine(
                capacity=4, queue_limit=30, service_time=1,
                cache=directory))
            after = directory.snapshot()
            assert report.cache_hits == after["hits"] - before["hits"]
            assert report.cache_semantic_hits == \
                after["semantic_hits"] - before["semantic_hits"]
            assert report.cache_messages_saved == \
                after["messages_saved"] - before["messages_saved"]
            assert report.cache_hits + report.cache_semantic_hits \
                <= report.submitted
            hits.append(report.cache_hits)
        assert 0 < hits[0] <= hits[1] == 30

    def test_report_as_dict_is_json_ready(self):
        import json
        report = self._run()
        payload = report.as_dict()
        json.dumps(payload)
        assert payload["submitted"] == 60
        assert isinstance(report, WorkloadReport)
