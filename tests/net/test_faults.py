"""Fault-injection subsystem: plan determinism, resilient execution.

Two pillars:

* **Zero-fault equivalence** — under ``FaultPlan.none()`` the supervised
  engine must reproduce the recursive engine's answers, processed sets,
  message counts, and latencies exactly, on MIDAS, Chord, and CAN, for
  all three query handlers (property-tested over seeded random networks).
* **Degradation under churn** — with injected crashes and losses every
  query terminates, never raises, and reports completeness < 1.0 with the
  unreachable-region volume accounted whenever data was lost.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (LinearScore, RangeHandler, Rect, TopKHandler, run_ripple)
from repro.common.hashing import mix
from repro.net.eventsim import EventSimulator, event_driven_ripple
from repro.net.faults import (_DROP_SALT, _JITTER_SALT, FaultPlan,
                              region_volume, resilient_ripple)
from repro.queries.rangeq import range_reference

from tests import netlib
from tests.netlib import ENGINE_CASES, handlers_for, seed_data


def midas_network(seed, peers=40, tuples=300):
    return (netlib.midas_network(seed, peers=peers, tuples=tuples),
            seed_data(seed, tuples, 2))


def chord_network(seed, peers=32, tuples=300):
    return (netlib.chord_network(seed, peers=peers, tuples=tuples),
            seed_data(seed, tuples, 1))


def can_network(seed, peers=40, tuples=300):
    return (netlib.can_network(seed, peers=peers, tuples=tuples),
            seed_data(seed, tuples, 2))


class TestFaultPlan:
    def test_zero_plan_injects_nothing(self):
        plan = FaultPlan.none()
        assert not plan.can_fail
        assert plan.alive("x", 0) and plan.alive("x", 10 ** 9)
        assert plan.incarnation("x", 5) == 0
        assert not plan.drops(0) and not plan.drops(123456)
        assert plan.forward_delay(7) == 1

    def test_crash_windows(self):
        plan = FaultPlan(crashes={"a": [(3, 7)], "b": [(0, math.inf)]})
        assert plan.alive("a", 2) and not plan.alive("a", 3)
        assert not plan.alive("a", 6) and plan.alive("a", 7)
        assert not plan.alive("b", 0) and not plan.alive("b", 10 ** 6)
        assert plan.incarnation("a", 2) == 0
        assert plan.incarnation("a", 3) == plan.incarnation("a", 100) == 1

    def test_empty_crash_window_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes={"a": [(5, 5)]})

    def test_drop_prob_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.0)

    def test_churn_fraction_validated(self):
        with pytest.raises(ValueError, match="crash_fraction"):
            FaultPlan.churn(["a", "b"], crash_fraction=1.5)
        with pytest.raises(ValueError, match="crash_fraction"):
            FaultPlan.churn(["a", "b"], crash_fraction=-0.1)

    @pytest.mark.parametrize("knob, bad", [
        ("ack_timeout", 0), ("ack_timeout", -1), ("watchdog_base", 0),
        ("heartbeat_period", 0), ("max_retries", -2), ("max_watchdogs", -1),
        ("max_reroute_depth", -1), ("suspect_after", 0), ("dead_after", 0)])
    def test_timing_knobs_validated(self, knob, bad):
        with pytest.raises(ValueError, match=knob):
            FaultPlan(**{knob: bad})
        with pytest.raises(ValueError, match=knob):
            FaultPlan.churn(["a"], crash_fraction=0.5, **{knob: bad})

    def test_suspect_after_may_not_exceed_dead_after(self):
        with pytest.raises(ValueError, match="suspect_after"):
            FaultPlan(suspect_after=3, dead_after=2)
        FaultPlan(max_retries=0, max_watchdogs=0, max_reroute_depth=0,
                  suspect_after=2, dead_after=2)  # the boundary is legal

    def test_churn_horizon_and_recovery_validated(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.churn(["a", "b"], crash_fraction=0.5, horizon=0)
        with pytest.raises(ValueError, match="recovery"):
            FaultPlan.churn(["a", "b"], crash_fraction=0.5, recovery=0)

    def test_protection_overrides_schedule(self):
        plan = FaultPlan(crashes={"a": [(0, math.inf)]})
        plan.protect("a")
        assert plan.alive("a", 0)
        assert plan.incarnation("a", 99) == 0

    def test_deterministic_draws(self):
        one = FaultPlan(seed=9, drop_prob=0.4, jitter=3)
        two = FaultPlan(seed=9, drop_prob=0.4, jitter=3)
        assert [one.drops(i) for i in range(200)] \
            == [two.drops(i) for i in range(200)]
        assert [one.forward_delay(i) for i in range(200)] \
            == [two.forward_delay(i) for i in range(200)]
        assert any(one.drops(i) for i in range(200))
        other = FaultPlan(seed=10, drop_prob=0.4, jitter=3)
        assert [one.drops(i) for i in range(200)] \
            != [other.drops(i) for i in range(200)]

    @given(seed=st.integers(-2 ** 63, 2 ** 70),
           message_id=st.integers(0, 2 ** 63))
    @settings(max_examples=200, deadline=None)
    def test_premixed_draws_equal_the_three_operand_mix(self, seed,
                                                        message_id):
        plan = FaultPlan(seed=seed, drop_prob=0.5, jitter=3)
        assert plan.drops(message_id) \
            == (mix(seed, _DROP_SALT, message_id) / float(1 << 64) < 0.5)
        assert plan.forward_delay(message_id) \
            == 1 + mix(seed, _JITTER_SALT, message_id) % 4

    @given(seed=st.integers(-2 ** 63, 2 ** 70), first=st.integers(0, 2 ** 63),
           count=st.integers(0, 40),
           drop_prob=st.sampled_from([0.0, 0.02, 0.5, 0.999]))
    @settings(max_examples=200, deadline=None)
    def test_drops_batch_equals_drops_id_by_id(self, seed, first, count,
                                               drop_prob):
        plan = FaultPlan(seed=seed, drop_prob=drop_prob)
        batch = plan.drops_batch(first, count)
        assert batch.dtype == bool and batch.shape == (count,)
        assert batch.tolist() == [plan.drops(first + i) for i in range(count)]

    def test_jitter_bounds(self):
        plan = FaultPlan(jitter=2)
        delays = {plan.forward_delay(i) for i in range(300)}
        assert delays == {1, 2, 3}

    def test_churn_fraction(self):
        overlay, _ = midas_network(1, peers=60)
        plan = FaultPlan.churn(overlay, crash_fraction=0.5, seed=4)
        assert 10 < len(plan.crashes) < 50  # ~30 expected
        again = FaultPlan.churn(overlay, crash_fraction=0.5, seed=4)
        assert plan.crashes == again.crashes
        assert FaultPlan.churn(overlay, crash_fraction=0.0, seed=4).crashes == {}

    def test_churn_recovery_windows_are_bounded(self):
        overlay, _ = midas_network(1, peers=40)
        plan = FaultPlan.churn(overlay, crash_fraction=0.9, seed=2,
                               horizon=16, recovery=8)
        assert plan.crashes
        for windows in plan.crashes.values():
            for down, up in windows:
                assert 0 <= down < 16
                assert down < up <= down + 9

    def test_from_overlay_freezes_alive_flags(self):
        overlay, _ = midas_network(2, peers=16)
        dead = [overlay.peers()[3], overlay.peers()[8]]
        for peer in dead:
            peer.alive = False
        plan = FaultPlan.from_overlay(overlay)
        for peer in overlay.peers():
            assert plan.alive(peer.peer_id, 0) == peer.alive
            assert plan.alive(peer.peer_id, 10 ** 9) == peer.alive


class TestRegionVolume:
    def test_domain_volume_is_one(self):
        overlay, _ = midas_network(0, peers=8)
        assert region_volume(overlay.domain()) == pytest.approx(1.0)

    def test_link_regions_partition_the_domain(self):
        overlay, _ = midas_network(0, peers=16)
        peer = overlay.peers()[0]
        total = sum(region_volume(ln.region) for ln in peer.links())
        assert total + peer.zone.volume() == pytest.approx(1.0)


class TestMaxEventGuard:
    def test_runaway_scheduling_fails_fast(self):
        sim = EventSimulator(max_events=25)

        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(0, reschedule)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run()

    def test_run_override_takes_precedence(self):
        sim = EventSimulator(max_events=None)
        counter = [0]

        def reschedule():
            counter[0] += 1
            sim.schedule(1, reschedule)

        sim.schedule(0, reschedule)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run(max_events=10)

    def test_normal_queries_stay_far_under_default(self):
        overlay, _ = midas_network(0)
        handler = TopKHandler(LinearScore([1, 1]), 3)
        result = event_driven_ripple(overlay.peers()[0], handler, 0,
                                     restriction=overlay.domain())
        assert result.stats.processed > 0  # ran to completion under the cap


ZERO_FAULT_CASES = [(kind, build, dims, strict)
                    for kind, (build, dims, strict) in ENGINE_CASES.items()]


class TestZeroFaultEquivalence:
    @pytest.mark.parametrize("name,build,dims,strict", ZERO_FAULT_CASES,
                             ids=[c[0] for c in ZERO_FAULT_CASES])
    @pytest.mark.parametrize("r", [0, 1, 10 ** 9])
    def test_matches_recursive_engine(self, name, build, dims, strict, r):
        overlay = build(seed=11)
        initiator = overlay.random_peer(np.random.default_rng(11))
        for handler in handlers_for(dims):
            recursive = run_ripple(initiator, handler, r,
                                   restriction=overlay.domain(),
                                   strict=strict)
            driven = event_driven_ripple(initiator, handler, r,
                                         restriction=overlay.domain(),
                                         strict=strict)
            resilient = resilient_ripple(initiator, handler, r,
                                         restriction=overlay.domain())
            assert resilient.answer == recursive.answer
            assert resilient.stats.latency == recursive.stats.latency
            assert resilient.stats.processed == recursive.stats.processed
            # message counts match the event-driven engine exactly (the
            # recursive engine's CAN dedup order can differ by a hair)
            assert (resilient.stats.forward_messages
                    == driven.stats.forward_messages)
            assert (resilient.stats.response_messages
                    == driven.stats.response_messages)
            assert resilient.stats.completeness == 1.0
            assert resilient.stats.timeouts == 0
            assert resilient.stats.retries == 0
            assert resilient.stats.reroutes == 0
            assert resilient.stats.dropped_messages == 0
            assert resilient.stats.unreachable_volume == 0.0

    @given(st.integers(0, 10 ** 6), st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_property_random_midas_networks(self, seed, r):
        overlay, _ = midas_network(seed, peers=20, tuples=150)
        handler = TopKHandler(LinearScore([1, 0.5]), 3)
        initiator = overlay.random_peer(np.random.default_rng(seed))
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain())
        resilient = resilient_ripple(initiator, handler, r,
                                     restriction=overlay.domain())
        assert resilient.answer == recursive.answer
        assert resilient.stats.latency == recursive.stats.latency
        assert resilient.stats.processed == recursive.stats.processed

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_property_random_chord_networks(self, seed):
        overlay, _ = chord_network(seed, peers=20, tuples=150)
        handler = RangeHandler(Rect((0.2,), (0.7,)))
        initiator = overlay.random_peer(np.random.default_rng(seed))
        for r in (0, 10 ** 9):
            recursive = run_ripple(initiator, handler, r,
                                   restriction=overlay.domain())
            resilient = resilient_ripple(initiator, handler, r,
                                         restriction=overlay.domain())
            assert sorted(resilient.answer) == sorted(recursive.answer)
            assert resilient.stats.latency == recursive.stats.latency
            assert resilient.stats.processed == recursive.stats.processed


class TestUnderFaults:
    def crashed_plan(self, overlay, seed, **kw):
        kw.setdefault("crash_fraction", 0.3)
        kw.setdefault("drop_prob", 0.1)
        kw.setdefault("jitter", 1)
        return FaultPlan.churn(overlay, seed=seed, **kw)

    @pytest.mark.parametrize("r", [0, 10 ** 9])
    def test_every_query_terminates_and_accounts(self, r):
        """Acceptance sweep: >=10% churn, non-pruning query (whole domain)."""
        degraded = fired = 0
        for seed in range(8):
            overlay, _ = midas_network(seed)
            handler = RangeHandler(Rect((0.0, 0.0), (1.0, 1.0)))
            plan = self.crashed_plan(overlay, seed + 50)
            initiator = overlay.random_peer(np.random.default_rng(seed))
            result = resilient_ripple(initiator, handler, r,
                                      restriction=overlay.domain(),
                                      faults=plan)
            stats = result.stats
            assert 0.0 <= stats.completeness <= 1.0
            if stats.timeouts or stats.retries:
                fired += 1
            if stats.completeness < 1.0:
                degraded += 1
                assert stats.unreachable_volume > 0.0
                assert stats.timeouts > 0
        assert fired > 0, "faults never exercised the recovery machinery"
        assert degraded > 0, "no query ever degraded under 30% churn"

    def test_degraded_range_answer_is_a_subset(self):
        """Partial answers contain only true tuples, never fabrications."""
        overlay, data = midas_network(7)
        box = Rect((0.0, 0.0), (1.0, 1.0))
        handler = RangeHandler(box)
        reference = {tuple(p) for p in range_reference(data, box)}
        plan = self.crashed_plan(overlay, 57)
        result = resilient_ripple(overlay.random_peer(), handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        answer = {tuple(p) for p in result.answer}
        assert answer <= reference
        if result.stats.completeness >= 1.0:
            assert answer == reference

    def test_drop_only_faults_recover_fully(self):
        """Pure message loss (no crashes) is repaired by retries: the
        answer is complete and retransmissions are visible in the stats."""
        overlay, data = midas_network(3)
        box = Rect((0.0, 0.0), (1.0, 1.0))
        handler = RangeHandler(box)
        plan = FaultPlan(seed=21, drop_prob=0.15)
        result = resilient_ripple(overlay.random_peer(), handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        assert result.stats.dropped_messages > 0
        assert result.stats.retries > 0
        assert result.stats.completeness == 1.0
        assert {tuple(p) for p in result.answer} \
            == {tuple(p) for p in range_reference(data, box)}

    def test_dead_neighborhood_is_rerouted_or_accounted(self):
        """Statically killing peers (alive flags) degrades completeness by
        roughly the dead volume, never silently."""
        overlay, _ = midas_network(9, peers=32)
        initiator = overlay.peers()[0]
        dead = [p for p in overlay.peers()[1:] if p.peer_id % 3 == 0]
        for peer in dead:
            peer.alive = False
        plan = FaultPlan.from_overlay(overlay)
        handler = RangeHandler(Rect((0.0, 0.0), (1.0, 1.0)))
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        stats = result.stats
        assert stats.completeness < 1.0
        assert stats.timeouts > 0 and stats.retries > 0
        dead_volume = sum(p.zone.volume() for p in dead)
        # every abandoned region contains at least its dead owner's zone,
        # so the accounted volume is at least ... bounded sanely.
        assert stats.unreachable_volume <= 1.0
        assert stats.completeness >= 1.0 - 3 * dead_volume - 0.25

    def test_recovered_peer_serves_retries(self):
        """A peer that is down briefly and recovers ends up processed."""
        overlay, data = midas_network(5, peers=16)
        initiator = overlay.peers()[0]
        victim = initiator.links()[0].peer  # first forward lands at t=1
        plan = FaultPlan(seed=1, crashes={victim.peer_id: [(0, 4)]})
        handler = RangeHandler(Rect((0.0, 0.0), (1.0, 1.0)))
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        assert result.stats.completeness == 1.0
        assert result.stats.timeouts > 0
        assert {tuple(p) for p in result.answer} \
            == {tuple(p) for p in
                range_reference(data, Rect((0.0, 0.0), (1.0, 1.0)))}

    def test_determinism_same_plan_same_result(self):
        overlay, _ = midas_network(13)
        handler = TopKHandler(LinearScore([1, 1]), 5)
        initiator = overlay.peers()[2]

        def run():
            plan = FaultPlan.churn(overlay, crash_fraction=0.3, seed=77,
                                   drop_prob=0.1, jitter=2)
            return resilient_ripple(initiator, handler, 10 ** 9,
                                    restriction=overlay.domain(), faults=plan)

        first, second = run(), run()
        assert first.answer == second.answer
        assert first.stats == second.stats

    @pytest.mark.parametrize("name",
                             [k for k in ENGINE_CASES if k != "midas"])
    def test_other_overlays_survive_churn(self, name):
        build, dims, _ = ENGINE_CASES[name]
        for seed in range(3):
            overlay = build(seed)
            plan = self.crashed_plan(overlay, seed + 9)
            handler = TopKHandler(LinearScore([1.0] * dims), 4)
            for r in (0, 10 ** 9):
                result = resilient_ripple(
                    overlay.random_peer(np.random.default_rng(seed)),
                    handler, r, restriction=overlay.domain(), faults=plan)
                assert 0.0 <= result.stats.completeness <= 1.0

    def test_stats_serialize_with_fault_counters(self):
        overlay, _ = midas_network(4)
        plan = self.crashed_plan(overlay, 44)
        handler = RangeHandler(Rect((0.0, 0.0), (1.0, 1.0)))
        result = resilient_ripple(overlay.random_peer(), handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        payload = result.stats.as_dict()
        for key in ("timeouts", "retries", "reroutes", "dropped_messages",
                    "ack_messages", "unreachable_volume", "completeness",
                    "latency", "processed", "total_messages"):
            assert key in payload
        import json
        json.dumps(payload)  # must be JSON-serializable as-is
