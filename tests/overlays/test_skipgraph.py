"""The rainbow skip-graph substrate: structure, degree bound, recovery.

The headline claim is the degree bound: a skip-graph peer's out-degree is
a constant (``SkipGraphOverlay.MAX_DEGREE``) independent of the network
size, because each tower member carries exactly one level of its tower's
skip pointers.  The suites below pin that bound across 2^6–2^13 peers
and arbitrary churn, alongside the RIPPLE contracts every substrate must
satisfy (zone/link-region partition of the key ring, exact owner
routing, same-tower/adjacent-tower replica placement) and the
fault-tolerance edge cases mirrored from ``tests/net/test_recovery.py``
(incarnation-aware rebirth, seeded-plan goldens).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (LinearScore, ReplicaDirectory, SkipGraphOverlay,
                   TopKHandler, run_ripple)
from repro.net.detector import ALIVE, DEAD, HEARTBEAT_PERIOD, FailureDetector
from repro.net.eventsim import EventSimulator, event_driven_ripple
from repro.net.faults import FaultPlan, resilient_ripple
from repro.net.routing import greedy_route, route_around
from repro.overlays.arena_build import from_overlay
from repro.queries.topk import topk_reference

from tests.netlib import (handlers_for, ring_arc, seed_data,
                          skipgraph_network)

relaxed = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


class TestStructure:
    def test_towers_partition_peers_in_key_order(self):
        overlay = SkipGraphOverlay(size=100, seed=4)
        index = overlay.tower_index()
        flattened = [m for members in index.towers for m in members]
        assert flattened == list(overlay.peers())
        assert all(len(members) <= overlay.tower_size()
                   for members in index.towers)
        for t, members in enumerate(index.towers):
            for j, member in enumerate(members):
                assert index.position[member.peer_id] == (t, j)

    @pytest.mark.parametrize("peers", (2, 3, 7, 16, 33, 64, 257))
    def test_zone_and_link_regions_partition_the_ring(self, peers):
        overlay = SkipGraphOverlay(size=peers, seed=9)
        for peer in overlay.peers():
            covered = ring_arc(peer).length() + sum(
                link.region.length() for link in peer.links())
            assert covered == pytest.approx(1.0)

    def test_links_include_the_base_successor(self):
        overlay = SkipGraphOverlay(size=48, seed=2)
        for peer in overlay.peers():
            successor = overlay.owner(peer.zone.end)
            assert successor.peer_id in {ln.peer.peer_id
                                         for ln in peer.links()}

    def test_owner_zone_contains_key(self):
        overlay = SkipGraphOverlay(size=40, seed=6)
        rng = np.random.default_rng(0)
        for key in rng.random(100):
            key = float(key)
            assert ring_arc(overlay.owner(key)).contains((key,))

    def test_link_cache_tracks_the_epoch(self):
        overlay = SkipGraphOverlay(size=16, seed=1)
        peer = overlay.peers()[0]
        first = peer.links()
        assert peer.links() is first          # cached within an epoch
        overlay.join()
        assert peer.links() is not first      # invalidated by churn

    def test_tower_size_follows_log2_of_the_size(self):
        overlay = SkipGraphOverlay(size=30, seed=3)
        assert overlay.tower_size() == 5
        assert all(len(m) <= 5 for m in overlay.tower_index().towers)
        overlay.grow_to(33)                   # re-derived after churn
        assert overlay.tower_size() == 6
        assert SkipGraphOverlay(size=1, seed=0).tower_size() == 1
        with pytest.raises(TypeError, match="tower_size"):
            SkipGraphOverlay(size=4, seed=0, tower_size=3)

    def test_load_places_every_tuple_at_its_owner(self):
        overlay = skipgraph_network(5)
        assert overlay.total_tuples() == 260
        for peer in overlay.peers():
            for (value,) in peer.store.iter_points():
                assert ring_arc(peer).contains((value,))


class TestDegreeBound:
    """The headline robustness property: out-degree is a constant."""

    @pytest.mark.parametrize("exponent", range(6, 14))
    def test_max_out_degree_is_constant(self, exponent):
        overlay = SkipGraphOverlay(size=2 ** exponent, seed=exponent)
        assert overlay.max_links() <= SkipGraphOverlay.MAX_DEGREE

    def test_degree_does_not_scale_with_n(self):
        # Unlike Chord fingers (Theta(log n)) the bound never moves.
        degrees = {n: SkipGraphOverlay(size=n, seed=0).max_links()
                   for n in (64, 512, 4096)}
        assert max(degrees.values()) <= SkipGraphOverlay.MAX_DEGREE
        assert degrees[4096] <= degrees[64] + 1

    @given(seed=st.integers(0, 10 ** 6), peers=st.integers(2, 200))
    @relaxed
    def test_bound_holds_on_arbitrary_networks(self, seed, peers):
        overlay = SkipGraphOverlay(size=peers, seed=seed)
        assert overlay.max_links() <= SkipGraphOverlay.MAX_DEGREE


class TestReplicaDiscipline:
    def test_first_copies_stay_in_the_tower(self):
        overlay = SkipGraphOverlay(size=64, seed=8)
        index = overlay.tower_index()
        for peer in overlay.peers():
            t, _ = index.position[peer.peer_id]
            members = {m.peer_id for m in index.towers[t]}
            if len(members) <= 1:
                continue
            for target in overlay.replica_targets(peer, len(members) - 1):
                assert target.peer_id in members

    def test_overflow_spills_to_adjacent_towers(self):
        overlay = SkipGraphOverlay(size=64, seed=8)
        index = overlay.tower_index()
        for peer in overlay.peers()[::7]:
            t, _ = index.position[peer.peer_id]
            height = len(index.towers[t])
            targets = overlay.replica_targets(peer, height + 2)
            assert len(targets) == height + 2
            spilled = [index.position[x.peer_id][0] for x in targets[height - 1:]]
            adjacent = {(t + 1) % len(index.towers),
                        (t - 1) % len(index.towers)}
            assert set(spilled) <= adjacent

    def test_epoch_attribute_feeds_the_directory(self):
        # the directory reads SkipGraphOverlay.epoch (no .tree) and must
        # reinstall placement when churn moves it
        overlay = SkipGraphOverlay(size=24, seed=3)
        overlay.load(seed_data(3, 120, 1))
        directory = ReplicaDirectory(overlay, copies=2)
        before = {pid for p in overlay.peers() for pid in p.replicas}
        assert before
        joiner = overlay.join()
        directory.refresh()
        assert {pid for p in overlay.peers() for pid in p.replicas} \
            >= before | {joiner.peer_id}
        for holder in directory.holders(joiner.peer_id):
            assert holder.peer_id != joiner.peer_id


class TestRouting:
    def test_greedy_routing_reaches_the_owner(self):
        overlay = SkipGraphOverlay(size=128, seed=12)
        rng = np.random.default_rng(1)
        hops = []
        for _ in range(40):
            start = overlay.random_peer(rng)
            point = (float(rng.random()),)
            target, path = greedy_route(start, point)
            assert ring_arc(target).contains(point)
            hops.append(len(path) - 1)
        assert max(hops) < len(overlay)  # never a full ring walk

    def test_route_around_finds_live_coordinators(self):
        overlay = SkipGraphOverlay(size=32, seed=5)
        overlay.load(seed_data(5, 200, 1))
        victim = overlay.peers()[10]
        alive = lambda pid: pid != victim.peer_id
        stand_in, hop = route_around(
            overlay.peers()[0], victim.links()[0].region, alive,
            exclude=[victim.peer_id])
        assert stand_in is not None
        assert stand_in.peer_id != victim.peer_id
        assert hop > 0


class TestQueries:
    def test_exact_answers_against_reference(self):
        overlay = skipgraph_network(4)
        data = seed_data(4, 260, 1)
        fn = LinearScore([1.0])
        result = run_ripple(overlay.peers()[0], TopKHandler(fn, 5), 0,
                            restriction=overlay.domain(), strict=True)
        assert [s for s, _ in result.answer] == \
            [s for s, _ in topk_reference(data, fn, 5)]

    @given(seed=st.integers(0, 10 ** 6), r=st.sampled_from((0, 2, 10 ** 9)),
           pick=st.integers(0, 2))
    @relaxed
    def test_property_engines_bit_identical(self, seed, r, pick):
        overlay = skipgraph_network(seed, peers=24, tuples=150)
        handler = handlers_for(1, third="diversify")[pick]
        initiator = overlay.random_peer(np.random.default_rng(seed))
        recursive = run_ripple(initiator, handler, r,
                               restriction=overlay.domain(), strict=True)
        driven = event_driven_ripple(initiator, handler, r,
                                     restriction=overlay.domain(),
                                     strict=True)
        resilient = resilient_ripple(initiator, handler, r,
                                     restriction=overlay.domain())
        assert driven.answer == recursive.answer == resilient.answer
        assert driven.stats.processed == recursive.stats.processed
        assert driven.stats.latency == resilient.stats.latency
        assert driven.stats.forward_messages \
            == resilient.stats.forward_messages

    def test_mirror_arena_uses_the_arc_family(self):
        overlay = skipgraph_network(6, peers=40)
        arena = from_overlay(overlay)
        assert arena.kind == "arc"              # exact: strict
        handler = TopKHandler(LinearScore([1.0]), 4)
        expected = run_ripple(overlay.peers()[0], handler, 0,
                              restriction=overlay.domain(), strict=True)
        got = run_ripple(arena.peer(0), handler, 0,
                         restriction=overlay.domain(), strict=True)
        assert got.answer == expected.answer
        assert got.stats.as_dict() == expected.stats.as_dict()


class TestRecoveryEdgeCases:
    """Skip-graph mirrors of the test_recovery edge cases."""

    def test_detector_walks_suspect_then_dead_on_skipgraph_ids(self):
        overlay = SkipGraphOverlay(size=16, seed=7)
        victim = overlay.peers()[3]
        plan = FaultPlan(crashes={victim.peer_id: [(0, math.inf)]})
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan,
                                   [p.peer_id for p in overlay.peers()])
        detector.start()
        sim.schedule(3 * HEARTBEAT_PERIOD + 1, detector.stop)
        sim.run()
        assert detector.status(victim.peer_id) == DEAD
        survivors = [p.peer_id for p in overlay.peers()
                     if p.peer_id != victim.peer_id]
        assert all(detector.status(pid) == ALIVE for pid in survivors)

    def test_incarnation_rebirth_clears_suspicion(self):
        overlay = SkipGraphOverlay(size=8, seed=7)
        victim = overlay.peers()[1]
        # down only between probes: the outage is invisible except through
        # the incarnation counter, which must still report the rebirth
        plan = FaultPlan(crashes={victim.peer_id: [(5, 7)]})
        sim = EventSimulator(faults=plan)
        detector = FailureDetector(sim, plan, [victim.peer_id])
        detector.start()
        sim.schedule(20, detector.stop)
        sim.run()
        assert detector.status(victim.peer_id) == ALIVE
        assert plan.incarnation(victim.peer_id, 20) == 1

    def test_briefly_down_peer_serves_retries(self):
        overlay = skipgraph_network(5, peers=16)
        initiator = overlay.peers()[0]
        victim = initiator.links()[0].peer
        plan = FaultPlan(seed=1, crashes={victim.peer_id: [(0, 4)]})
        handler = TopKHandler(LinearScore([1.0]), 4)
        expected = run_ripple(initiator, handler, 0,
                              restriction=overlay.domain(), strict=True)
        result = resilient_ripple(initiator, handler, 0,
                                  restriction=overlay.domain(), faults=plan)
        assert result.stats.completeness == 1.0
        assert result.stats.timeouts > 0
        assert result.answer == expected.answer

    def test_seeded_plan_golden_on_skipgraph_population(self):
        """Crash/drop/jitter draws over a seeded skip-graph network are
        pinned: recorded BENCH_churn scenarios rely on these exact draws."""
        overlay = skipgraph_network(0, peers=16, tuples=120)
        assert [p.peer_id for p in overlay.peers()][:6] == [0, 1, 2, 3, 4, 5]
        plan = FaultPlan.churn(overlay, crash_fraction=0.25, seed=42,
                               horizon=16, drop_prob=0.2, jitter=3)
        assert sorted(plan.crashes) == [6, 9, 12, 13, 14]
        assert [plan.crashes[pid][0][0] for pid in sorted(plan.crashes)] \
            == [8.0, 8.0, 9.0, 3.0, 5.0]
        assert [i for i in range(32) if plan.drops(i)] == [10, 17, 20, 30]
        assert [plan.forward_delay(i) for i in range(8)] \
            == [3, 1, 4, 2, 4, 3, 4, 3]

    def test_network_build_is_seed_stable(self):
        one = skipgraph_network(3)
        two = skipgraph_network(3)
        assert [p.key for p in one.peers()] == [p.key for p in two.peers()]
        assert [len(p.store) for p in one.peers()] \
            == [len(p.store) for p in two.peers()]
