"""Replica-aware recovery: exact answers under survivable churn.

The tentpole property of the self-healing subsystem: whenever every
crashed peer has at least one live replica holder, ``resilient_ripple``
run with a :class:`~repro.overlays.replication.ReplicaDirectory` must
return completeness 1.0 *and* the byte-identical answer of the fault-free
engines — for top-k, skyline, and diversification, on every substrate in
``tests.netlib.OVERLAYS``.  Alongside it:

* zero-fault + directory attached stays bit-identical to the fault-free
  engines (the detector never starts, no message-id draws shift);
* a total partition (every replica and alternate dead) still terminates,
  with completeness < 1.0 and no livelock;
* a blown event budget raises ``SimulationBudgetExceeded`` carrying the
  partial stats (not a bare ``RuntimeError`` with no observability);
* the seeded fault draws of ``FaultPlan.churn`` are pinned by golden
  fingerprints so a refactor cannot silently reshuffle every recorded
  benchmark scenario.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (LinearScore, ReplicaDirectory, SimulationBudgetExceeded,
                   TopKHandler, run_ripple)
from repro.net.eventsim import event_driven_ripple
from repro.net.faults import FaultPlan, resilient_ripple

from tests.netlib import (NETWORKS, OVERLAYS, STRICT, chord_network,
                          midas_network)
from tests.netlib import handlers_for as _handlers_for


def handlers_for(dims):
    return _handlers_for(dims, third="diversify")


def survivable_churn(overlay, initiator, *, seed, crash_fraction=0.3,
                     copies=2, drop_prob=0.0):
    """A from-time-zero churn plan where every crash is survivable.

    Builds the directory, draws the churn, then deletes the crashes of
    any owner whose replica holders would *all* be down too — the
    remaining failures are exactly the ones the tentpole guarantees
    recovery from.
    """
    directory = ReplicaDirectory(overlay, copies=copies)
    plan = FaultPlan.churn(overlay, crash_fraction=crash_fraction,
                           seed=seed, horizon=1, drop_prob=drop_prob)
    plan.protect(initiator.peer_id)
    live = lambda pid: pid not in plan.crashes or pid in plan.protected
    plan.crashes = {
        pid: windows for pid, windows in plan.crashes.items()
        if pid not in plan.protected
        and any(live(h.peer_id) for h in directory.holders(pid))}
    return plan, directory


class TestExactRecovery:
    @pytest.mark.parametrize("kind", OVERLAYS)
    @pytest.mark.parametrize("r", (0, 2))
    def test_completeness_one_and_exact_answers(self, kind, r):
        crashed_somewhere = recovered_somewhere = False
        for seed in range(4):
            overlay = NETWORKS[kind](seed)
            initiator = overlay.peers()[0]
            restriction = overlay.domain()
            plan, directory = survivable_churn(overlay, initiator, seed=seed)
            crashed_somewhere |= bool(plan.crashes)
            for handler in handlers_for(restriction.rect.dims):
                expected = run_ripple(initiator, handler, r,
                                      restriction=restriction,
                                      strict=STRICT[kind])
                result = resilient_ripple(initiator, handler, r,
                                          restriction=restriction,
                                          faults=plan, replicas=directory)
                assert result.stats.completeness == 1.0
                assert result.answer == expected.answer
                recovered_somewhere |= result.stats.regions_recovered > 0
        assert crashed_somewhere
        assert recovered_somewhere

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 40),
           kind=st.sampled_from(OVERLAYS),
           r=st.sampled_from((0, 2)))
    def test_property_survivable_churn_is_lossless(self, seed, kind, r):
        overlay = NETWORKS[kind](seed)
        initiator = overlay.peers()[0]
        restriction = overlay.domain()
        plan, directory = survivable_churn(overlay, initiator, seed=seed,
                                           drop_prob=0.03)
        handler = handlers_for(restriction.rect.dims)[seed % 3]
        expected = run_ripple(initiator, handler, r, restriction=restriction,
                              strict=STRICT[kind])
        result = resilient_ripple(initiator, handler, r,
                                  restriction=restriction,
                                  faults=plan, replicas=directory)
        assert result.stats.completeness == 1.0
        assert result.answer == expected.answer

    def test_replica_reads_and_recoveries_are_counted(self):
        overlay = midas_network(7, peers=48)
        initiator = overlay.peers()[0]
        plan, directory = survivable_churn(overlay, initiator, seed=3,
                                           crash_fraction=0.4)
        assert plan.crashes
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(),
                                  faults=plan, replicas=directory)
        assert result.stats.regions_recovered > 0
        assert result.stats.replica_reads > 0
        assert result.stats.completeness == 1.0
        stats = result.stats.as_dict()
        assert stats["regions_recovered"] == result.stats.regions_recovered
        assert stats["replica_reads"] == result.stats.replica_reads


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("kind", OVERLAYS)
    @pytest.mark.parametrize("copies", (0, 2))
    def test_directory_alone_changes_nothing(self, kind, copies):
        """With a zero-fault plan the detector never starts; attaching a
        directory of any degree must keep the supervised engine
        bit-identical to the fault-free engines."""
        overlay = NETWORKS[kind](11)
        initiator = overlay.peers()[0]
        restriction = overlay.domain()
        directory = ReplicaDirectory(overlay, copies=copies)
        for r in (0, 2):
            for handler in handlers_for(restriction.rect.dims):
                plain = event_driven_ripple(initiator, handler, r,
                                            restriction=restriction,
                                            strict=False)
                resilient = resilient_ripple(initiator, handler, r,
                                             restriction=restriction,
                                             faults=FaultPlan.none(),
                                             replicas=directory)
                assert resilient.answer == plain.answer
                assert resilient.stats.latency == plain.stats.latency
                assert resilient.stats.processed == plain.stats.processed
                assert resilient.stats.forward_messages \
                    == plain.stats.forward_messages
                assert resilient.stats.regions_recovered == 0
                assert resilient.stats.replica_reads == 0


class TestTotalPartition:
    @pytest.mark.parametrize("kind", OVERLAYS)
    def test_terminates_with_partial_answer(self, kind):
        """Every peer but the initiator dead and no replicas anywhere —
        must degrade to a partial answer, never livelock or raise."""
        overlay = NETWORKS[kind](5)
        initiator = overlay.peers()[0]
        directory = ReplicaDirectory(overlay, copies=0)
        crashes = {p.peer_id: [(0.0, math.inf)] for p in overlay.peers()
                   if p.peer_id != initiator.peer_id}
        plan = FaultPlan(seed=5, crashes=crashes)
        handler = TopKHandler(
            LinearScore([1.0] * overlay.domain().rect.dims), 4)
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(),
                                  faults=plan, replicas=directory,
                                  max_events=200_000)
        assert result.stats.completeness < 1.0
        assert result.stats.regions_recovered == 0
        # only the initiator's own data made it into the answer
        assert result.stats.processed == 1

    def test_initiator_held_replicas_rescue_their_owners(self):
        """Kill exactly the owners mirrored on the initiator (and their
        other holders): promotion must land on the initiator's replicas
        and the query must stay lossless."""
        overlay = midas_network(5)
        initiator = overlay.peers()[0]
        directory = ReplicaDirectory(overlay, copies=2)
        owners = set(initiator.replicas)
        assert owners  # the initiator hosts someone's mirror
        doomed = set(owners)
        for owner_id in owners:
            doomed |= {h.peer_id for h in directory.holders(owner_id)
                       if h.peer_id != initiator.peer_id}
        doomed.discard(initiator.peer_id)
        plan = FaultPlan(
            seed=5, crashes={pid: [(0.0, math.inf)] for pid in doomed})
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        expected = run_ripple(initiator, handler, 0,
                              restriction=overlay.domain())
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(),
                                  faults=plan, replicas=directory,
                                  max_events=500_000)
        assert result.stats.completeness == 1.0
        assert result.answer == expected.answer

    def test_dead_holders_fall_through_to_abandonment(self):
        """A crash set that kills an owner *and* all its holders gives up
        on that owner's region instead of cycling through dead stand-ins."""
        from repro import RangeHandler, Rect

        overlay = chord_network(9)
        initiator = overlay.peers()[0]
        directory = ReplicaDirectory(overlay, copies=2)
        victim = overlay.peers()[4]
        doomed = {victim.peer_id} | {
            h.peer_id for h in directory.holders(victim.peer_id)}
        assert initiator.peer_id not in doomed
        plan = FaultPlan(
            seed=9, crashes={pid: [(0.0, math.inf)] for pid in doomed})
        # a whole-domain range query cannot prune, so the victim's arc
        # must be either served or abandoned — never silently skipped
        handler = RangeHandler(Rect((0.0,), (1.0,)))
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(),
                                  faults=plan, replicas=directory,
                                  max_events=200_000)
        assert result.stats.completeness < 1.0
        assert result.stats.unreachable_volume > 0.0


class TestBudgetExceeded:
    def test_carries_partial_stats(self):
        overlay = midas_network(3)
        initiator = overlay.peers()[0]
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        with pytest.raises(SimulationBudgetExceeded,
                           match="event budget") as info:
            resilient_ripple(initiator, handler, 0,
                             restriction=overlay.domain(),
                             faults=FaultPlan.none(), max_events=10)
        exc = info.value
        assert isinstance(exc, RuntimeError)  # backward compatible
        assert exc.cap == 10
        assert exc.executed == 11
        assert exc.stats is not None
        assert exc.stats.processed >= 1  # partial progress is visible
        assert exc.stats.forward_messages > 0

    def test_no_context_means_no_stats(self):
        from repro.net.eventsim import EventSimulator

        sim = EventSimulator(max_events=2)

        def spin():
            sim.schedule(1, spin)

        sim.schedule(0, spin)
        with pytest.raises(SimulationBudgetExceeded) as info:
            sim.run()
        assert info.value.stats is None


class TestSeedStability:
    """Golden fingerprints: the seeded fault draws must never reshuffle.

    Recorded benchmark scenarios (BENCH_churn.json) and any published
    completeness numbers are keyed by (seed, fraction) — a refactor of the
    hashing or of the draw order would silently invalidate all of them.
    These fingerprints pin the exact outcomes for fixed inputs.
    """

    def test_churn_draws_are_pinned(self):
        ids = list(range(64))
        plan = FaultPlan.churn(ids, crash_fraction=0.25, seed=42, horizon=16)
        assert sorted(plan.crashes) == [
            6, 9, 12, 13, 14, 17, 20, 24, 31, 35, 40, 44, 50, 51, 54, 56]
        assert [plan.crashes[pid][0][0] for pid in sorted(plan.crashes)] == [
            8.0, 8.0, 9.0, 3.0, 5.0, 7.0, 11.0, 10.0, 0.0, 7.0, 5.0, 13.0,
            6.0, 6.0, 2.0, 12.0]
        assert all(up == math.inf
                   for windows in plan.crashes.values()
                   for _, up in windows)

    def test_churn_with_recovery_is_pinned(self):
        plan = FaultPlan.churn(list(range(32)), crash_fraction=0.5, seed=7,
                               horizon=8, recovery=4)
        assert sorted(plan.crashes) == [
            2, 3, 4, 5, 9, 10, 11, 13, 15, 16, 17, 18, 24, 30]
        windows = [plan.crashes[pid][0] for pid in sorted(plan.crashes)]
        assert windows == [
            (2.0, 5.0), (0.0, 4.0), (0.0, 1.0), (3.0, 4.0), (7.0, 10.0),
            (3.0, 5.0), (4.0, 6.0), (4.0, 6.0), (3.0, 5.0), (7.0, 8.0),
            (2.0, 6.0), (4.0, 5.0), (5.0, 9.0), (3.0, 6.0)]

    def test_static_crash_is_down_for_good(self):
        overlay = chord_network(2, peers=16)
        dead = {p.peer_id for i, p in enumerate(overlay.peers())
                if i % 3 == 0}
        plan = FaultPlan(seed=2,
                         crashes={pid: [(0.0, math.inf)] for pid in dead})
        assert set(plan.crashes) == dead
        assert all(windows == ((0.0, math.inf),)
                   for windows in plan.crashes.values())
        for peer in overlay.peers():
            up = peer.peer_id not in dead
            assert plan.alive(peer.peer_id, 0) == up
            assert plan.alive(peer.peer_id, 10 ** 9) == up

    def test_message_draw_sequences_are_pinned(self):
        plan = FaultPlan(seed=42, drop_prob=0.2, jitter=3)
        drops = [i for i in range(64) if plan.drops(i)]
        assert drops == [10, 17, 20, 30, 32, 35, 42, 43, 46, 48, 53, 56, 57]
        delays = [plan.forward_delay(i) for i in range(16)]
        assert delays == [3, 1, 4, 2, 4, 3, 4, 3, 2, 3, 3, 4, 4, 2, 3, 4]
