"""Adaptive-fanout controller: pressure, the ladder, determinism.

The controller may change *when* and *how wide* queries fan out — never
what they answer: the framework's r-invariance means every choice of
``r`` returns the identical result, so the tests pin (a) the control
law itself on fabricated loads and (b) end-to-end determinism and answer
invariance under ``WorkloadSpec.adaptive_r``.
"""

import pytest

from repro.net import adaptive
from repro.net.adaptive import AdaptiveFanout, EngineLoad
from repro.net.context import QueryStats
from repro.net.scheduler import QueryCompleted, QueryEngine
from repro.net.workload import WorkloadSpec, run_workload

from tests.netlib import midas_network


class TestEngineLoad:
    def test_idle_is_zero(self):
        load = EngineLoad(running=0, capacity=4, waiting=0, queue_limit=8)
        assert load.pressure == 0.0

    def test_saturated_is_one(self):
        load = EngineLoad(running=4, capacity=4, waiting=8, queue_limit=8)
        assert load.pressure == 1.0

    def test_full_capacity_alone_is_half(self):
        # Running full is normal operation; queue fill is the other half
        # of the signal, so capacity occupancy alone cannot saturate.
        load = EngineLoad(running=4, capacity=4, waiting=0, queue_limit=8)
        assert load.pressure == 0.5

    def test_monotone_in_queue_fill(self):
        pressures = [
            EngineLoad(running=2, capacity=4, waiting=w,
                       queue_limit=8).pressure
            for w in range(9)]
        assert pressures == sorted(pressures)


def load_at(pressure):
    """An EngineLoad whose blended pressure equals ``pressure``."""
    return EngineLoad(running=int(round(4 * pressure)), capacity=4,
                      waiting=int(round(8 * pressure)), queue_limit=8)


class TestLadder:
    def test_idle_picks_latency_optimal(self):
        fanout = AdaptiveFanout(rs=(0, 1, 2))
        assert fanout.choose(None, load_at(0.0)) == 0

    def test_saturated_picks_message_optimal(self):
        fanout = AdaptiveFanout(rs=(0, 1, 2))
        assert fanout.choose(None, load_at(1.0)) == 2

    def test_middle_pressure_picks_the_middle(self):
        fanout = AdaptiveFanout(rs=(0, 1, 2))
        assert fanout.choose(None, load_at(0.5)) == 1

    def test_decisions_are_tallied(self):
        fanout = AdaptiveFanout(rs=(0, 2))
        for _ in range(3):
            fanout.choose(None, load_at(0.0))
        assert fanout.decisions == {0: 3, 2: 0}

    def test_candidates_are_required(self):
        with pytest.raises(ValueError):
            AdaptiveFanout(rs=())


class TestObserve:
    def test_queue_delay_fraction_feeds_the_ewma(self):
        assert adaptive.SMOOTHING == 0.3
        fanout = AdaptiveFanout(rs=(0, 2))
        outcome = QueryCompleted(job=None,
                                 stats=QueryStats(queue_delay=5),
                                 submitted_at=0, finished_at=10)
        fanout.observe(outcome)
        assert fanout.pressure == pytest.approx(0.3 * 0.5)
        fanout.observe(outcome)
        assert fanout.pressure == pytest.approx(0.15 + 0.3 * (0.5 - 0.15))

    def test_sustained_congestion_raises_the_choice(self, monkeypatch):
        monkeypatch.setattr(adaptive, "SMOOTHING", 1.0)
        fanout = AdaptiveFanout(rs=(0, 1, 2))
        congested = QueryCompleted(job=None,
                                   stats=QueryStats(queue_delay=9),
                                   submitted_at=0, finished_at=10)
        fanout.observe(congested)
        # The EWMA keeps steering even when the instantaneous load dips.
        assert fanout.choose(None, load_at(0.0)) == 2


def adaptive_spec(adaptive):
    return WorkloadSpec(queries=30, rate=2.0, seed=3, rs=(0, 1, 2),
                        adaptive_r=adaptive)


def run_once(adaptive):
    overlay = midas_network(5, peers=16, tuples=120)
    engine = QueryEngine(capacity=2, queue_limit=30, service_time=1)
    report = run_workload(overlay, adaptive_spec(adaptive), engine=engine)
    answers = {job_id: outcome.answer
               for job_id, outcome in report.outcomes.items()
               if isinstance(outcome, QueryCompleted)}
    return report, answers


class TestWorkloadIntegration:
    def test_adaptive_runs_are_deterministic(self):
        first, first_answers = run_once(adaptive=True)
        second, second_answers = run_once(adaptive=True)
        assert first.fanout_decisions == second.fanout_decisions
        assert first_answers == second_answers

    def test_adaptation_never_changes_answers(self):
        # r-invariance end to end: the adaptive run answers exactly what
        # the fixed-r run answers, query for query.
        fixed, fixed_answers = run_once(adaptive=False)
        adaptive, adaptive_answers = run_once(adaptive=True)
        assert fixed.fanout_decisions is None
        assert adaptive.fanout_decisions is not None
        assert sum(adaptive.fanout_decisions.values()) \
            == adaptive.completed
        common = set(fixed_answers) & set(adaptive_answers)
        assert common
        for job_id in common:
            assert fixed_answers[job_id] == adaptive_answers[job_id]
