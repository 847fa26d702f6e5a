"""Result-cache soundness: warm == cold, exact invalidation, semantic reuse.

The cache's one contract is that a warm answer is byte-identical to the
answer the cold run would have produced *right now* — across exact hits,
semantic seeding, store mutations, zone splits/merges, and crash
promotions.  Every test here reduces to that comparison; the hypothesis
sweep at the bottom pins it across the overlay × handler matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (Frustum, FrustumRegion, LinearScore, RangeHandler,
                   Rect, RectRegion, SkylineHandler, TopKHandler,
                   run_ripple)
from repro.net import resultcache
from repro.net.context import QueryResult, QueryStats
from repro.net.resultcache import CacheDirectory, CacheLookup
from repro.net.scheduler import QueryCompleted, QueryEngine
from repro.overlays.replication import ReplicaDirectory

from tests.netlib import DIMS, ENGINE_CASES, OVERLAYS, handlers_for, \
    midas_network


def run_cold(overlay, handler, restriction=None, *, strict=True, r=0):
    restriction = overlay.domain() if restriction is None else restriction
    return run_ripple(overlay.peers()[0], handler, r,
                      restriction=restriction, strict=strict)


def run_warm(overlay, cache, handler, restriction=None, *,
             strict=True, r=0):
    """One query through an engine wired to ``cache``; its outcome."""
    restriction = overlay.domain() if restriction is None else restriction
    engine = QueryEngine(capacity=2, cache=cache)
    job = engine.submit(overlay.peers()[0], handler, r,
                        restriction=restriction, strict=strict)
    outcome = engine.run()[job]
    assert isinstance(outcome, QueryCompleted)
    return outcome


# -- keys ---------------------------------------------------------------------


def remember(cache, overlay, handler, restriction=None):
    """Store ``handler``'s cold run over ``restriction``; its result."""
    restriction = overlay.domain() if restriction is None else restriction
    result = run_cold(overlay, handler, restriction)
    peer_ids = [peer.peer_id for peer in overlay.peers()]
    assert cache.store(handler, restriction, result, peer_ids)
    return result


def equal_pairs(dims=2):
    """One pair per family of distinct handlers built from equal values."""
    box = ((0.1,) * dims, (0.8,) * dims)
    return [(TopKHandler(LinearScore([1.0] * dims), 4),
             TopKHandler(LinearScore([1.0] * dims), 4)),
            (SkylineHandler(dims, constraint=Rect(*box)),
             SkylineHandler(dims, constraint=Rect(*box))),
            (RangeHandler(Rect(*box)), RangeHandler(Rect(*box)))]


class TestFingerprints:
    """A handler is its own cache key: its parameters, by value."""

    def test_structurally_equal_handlers_share_a_key(self):
        # The workload generator builds a fresh handler per arrival;
        # value equality (not object identity) must key the cache, and a
        # fresh but equal handler gets the exact hit an earlier one stored.
        overlay = midas_network(7)
        for first, again in equal_pairs():
            assert first is not again
            assert first == again and hash(first) == hash(again)
            cache = CacheDirectory(overlay)
            cold = remember(cache, overlay, first)
            found = cache.lookup(again, overlay.domain())
            assert found.is_exact and found.answer == cold.answer
            assert cache.hits == 1

    def test_different_k_different_key(self):
        # Each parameter separates keys on its own: storing the base
        # query never gives the variant an exact-key hit.
        overlay = midas_network(7)
        fn = LinearScore([1.0, 1.0])
        box = Rect((0.1, 0.1), (0.8, 0.8))
        cases = {
            "k": (TopKHandler(fn, 4), TopKHandler(fn, 8)),
            "fn": (TopKHandler(fn, 4),
                   TopKHandler(LinearScore([1.0, 2.0]), 4)),
            "constraint": (SkylineHandler(2, constraint=box),
                           SkylineHandler(2, constraint=Rect(
                               (0.1, 0.1), (0.8, 0.9)))),
            "box": (RangeHandler(box),
                    RangeHandler(Rect((0.1, 0.1), (0.8, 0.9)))),
        }
        for name, (base, variant) in cases.items():
            assert base != variant, name
            cache = CacheDirectory(overlay)
            remember(cache, overlay, base)
            cache.lookup(variant, overlay.domain())
            assert cache.hits == 0, name
            assert cache.lookup(base, overlay.domain()).is_exact, name
            assert cache.hits == 1, name

    def test_multi_round_handler_uncacheable(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        diversify = handlers_for(2, third="diversify")[2]
        assert diversify.key is None
        assert diversify == diversify
        assert diversify != handlers_for(2, third="diversify")[2]
        peer_ids = [p.peer_id for p in overlay.peers()]
        done = QueryResult([], QueryStats())
        assert not cache.store(diversify, overlay.domain(), done, peer_ids)
        assert len(cache) == 0
        assert cache.lookup(diversify, overlay.domain()) == CacheLookup("miss")

    def test_frustum_region_uncacheable(self):
        # CAN link restrictions are frusta with conservative covers; two
        # issues of the "same" query may differ hop-for-hop, so no entry.
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        frustum = Frustum(axis=0, base=Rect((0.0, 0.0), (0.0, 1.0)),
                          top=Rect((0.5, 0.2), (0.5, 0.8)))
        region = FrustumRegion(frustum)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        peer_ids = [p.peer_id for p in overlay.peers()]
        done = QueryResult([], QueryStats())
        assert not cache.store(handler, region, done, peer_ids)
        assert len(cache) == 0
        assert cache.lookup(handler, region) == CacheLookup("miss")

    def test_rect_and_arc_regions_cacheable(self):
        for kind in ("midas", "chord"):
            build, dims, _ = ENGINE_CASES[kind]
            overlay = build(3)
            cache = CacheDirectory(overlay)
            for handler in handlers_for(dims):
                cold = remember(cache, overlay, handler)
                found = cache.lookup(handler, overlay.domain())
                assert found.is_exact and found.answer == cold.answer


# -- exact reuse ------------------------------------------------------------


class TestExactReuse:
    @pytest.mark.parametrize("kind", ["midas", "chord", "skipgraph"])
    def test_warm_is_bit_identical_and_free(self, kind):
        build, dims, strict = ENGINE_CASES[kind]
        overlay = build(7)
        cache = CacheDirectory(overlay)
        for handler in handlers_for(dims):
            cold = run_cold(overlay, handler, strict=strict)
            first = run_warm(overlay, cache, handler, strict=strict)
            second = run_warm(overlay, cache, handler, strict=strict)
            assert first.answer == cold.answer
            assert second.answer == cold.answer
            # The exact hit ran nothing: empty stats, no messages.
            assert second.stats == QueryStats()
        assert cache.hits == len(handlers_for(dims))
        assert cache.messages_saved > 0

    def test_partial_answers_are_refused(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        partial = QueryResult([], QueryStats(completeness=0.5))
        peer_ids = [p.peer_id for p in overlay.peers()[:2]]
        assert not cache.store(handler, overlay.domain(), partial, peer_ids)
        replayed = QueryResult([], QueryStats(replica_reads=1))
        assert not cache.store(handler, overlay.domain(), replayed, peer_ids)
        assert len(cache) == 0

    def test_untracked_evidence_is_refused(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        ok = QueryResult([], QueryStats())
        assert not cache.store(handler, overlay.domain(), ok, ["no-such"])
        assert not cache.store(handler, overlay.domain(), ok, [])

    def test_a_concurrent_repeat_replaces_its_entry(self):
        # Both runs miss, both store: the second store replaces the
        # first's entry, which is not an invalidation.
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        engine = QueryEngine(capacity=2, cache=cache)
        for _ in range(2):
            engine.submit(overlay.peers()[0],
                          TopKHandler(LinearScore([1.0, 1.0]), 4), 0,
                          restriction=overlay.domain())
        cold = run_cold(overlay, TopKHandler(LinearScore([1.0, 1.0]), 4))
        assert [outcome.answer for outcome in engine.run().values()] \
            == [cold.answer] * 2
        assert len(cache) == 1
        assert cache.snapshot()["misses"] == 2
        assert cache.invalidations == 0

    def test_capacity_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(resultcache, "CAPACITY", 1)
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        first = RangeHandler(Rect((0.0, 0.0), (0.4, 0.4)))
        second = RangeHandler(Rect((0.5, 0.5), (0.9, 0.9)))
        run_warm(overlay, cache, first)
        assert len(cache) == 1
        run_warm(overlay, cache, second)
        assert len(cache) == 1
        assert cache.lookup(second, overlay.domain()).is_exact
        assert not cache.lookup(first, overlay.domain()).is_exact


# -- invalidation -----------------------------------------------------------


class TestInvalidation:
    def test_store_mutation_drops_exactly_the_affected_entries(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        run_warm(overlay, cache, handler)
        (entry,) = cache._entries.values()
        touched_ids = {peer_id for peer_id, _ in entry.touched}
        untouched = next(p for p in overlay.peers()
                         if p.peer_id not in touched_ids)
        # Mutating a peer the query never read keeps the entry hot...
        untouched.store.insert(np.array([0.5, 0.5]))
        assert cache.lookup(handler, overlay.domain()).is_exact
        # ...mutating a touched peer drops it, and the re-run reflects
        # the new tuple (warm == the *new* cold, not the stale answer).
        target = next(p for p in overlay.peers()
                      if p.peer_id in touched_ids)
        target.store.insert(np.array([0.99, 0.99]))
        assert not cache.lookup(handler, overlay.domain()).is_exact
        warm = run_warm(overlay, cache, handler)
        assert warm.answer == run_cold(overlay, handler).answer
        assert warm.stats.total_messages > 0

    def test_hits_audit_their_evidence_once_per_network_event(
            self, monkeypatch):
        """The freshness walk over ``entry.touched`` runs when a store,
        departure or crash has reported in since the entry was last
        checked — not on every hit of a network that has not moved."""
        from repro.common.store import LocalStore

        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        run_warm(overlay, cache, handler)
        (entry,) = cache._entries.values()
        touched_ids = {peer_id for peer_id, _ in entry.touched}
        reads = []
        version = LocalStore.version.fget
        monkeypatch.setattr(LocalStore, "version", property(
            lambda store: reads.append(store) or version(store)))
        before = cache.snapshot()
        for _ in range(5):
            assert cache.lookup(handler, overlay.domain()).is_exact
        assert reads == []
        # An insert the entry does not rest on: one full walk, still a hit.
        untouched = next(p for p in overlay.peers()
                         if p.peer_id not in touched_ids)
        untouched.store.insert(np.array([0.5, 0.5]))
        reads.clear()
        for _ in range(3):
            assert cache.lookup(handler, overlay.domain()).is_exact
        assert len(reads) == len(entry.touched)
        after = cache.snapshot()
        assert after == {**before, "hits": before["hits"] + 8,
                         "messages_saved": before["messages_saved"]
                         + 8 * entry.cost}
        # An insert it does rest on is still a miss.
        target = next(p for p in overlay.peers()
                      if p.peer_id in touched_ids)
        target.store.insert(np.array([0.99, 0.99]))
        assert not cache.lookup(handler, overlay.domain()).is_exact

    def test_an_abandoned_directory_is_not_kept_alive_by_its_stores(self):
        import gc
        import weakref

        overlay = midas_network(7, peers=12)
        before = [len(p.store._listeners) for p in overlay.peers()]
        cache = CacheDirectory(overlay)
        run_warm(overlay, cache, TopKHandler(LinearScore([1.0, 1.0]), 4))
        assert [len(p.store._listeners) for p in overlay.peers()] == \
            [n + 1 for n in before]
        gone = weakref.ref(cache)
        del cache
        gc.collect()
        assert gone() is None  # stores held it only weakly
        assert [len(p.store._listeners) for p in overlay.peers()] == before
        overlay.peers()[0].store.insert(np.array([0.5, 0.5]))  # no listener left

    def test_split_then_merge_stays_sound(self):
        overlay = midas_network(7, peers=12)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        run_warm(overlay, cache, handler)
        overlay.grow_to(16)          # splits: extract() + epoch bump
        warm = run_warm(overlay, cache, handler)
        assert warm.answer == run_cold(overlay, handler).answer
        overlay.shrink_to(12)        # merges: take_all() + bulk_load()
        warm = run_warm(overlay, cache, handler)
        assert warm.answer == run_cold(overlay, handler).answer

    def test_crash_promotion_invalidates_via_repair(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        replicas = ReplicaDirectory(overlay, copies=1)
        cache.watch_replicas(replicas)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 4)
        run_warm(overlay, cache, handler)
        (entry,) = cache._entries.values()
        dead_id = entry.touched[0][0]
        replicas.repair(dead_id, lambda peer_id: True)
        assert len(cache) == 0
        assert not cache.lookup(handler, overlay.domain()).is_exact

    def test_engine_wires_the_promotion_hook(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        replicas = ReplicaDirectory(overlay, copies=1)
        fired = []
        original = cache.invalidate_peer
        cache.invalidate_peer = lambda pid: (fired.append(pid),
                                             original(pid))
        QueryEngine(capacity=2, cache=cache, replicas=replicas)
        replicas.repair(overlay.peers()[0].peer_id, lambda peer_id: True)
        assert fired == [overlay.peers()[0].peer_id]


# -- semantic reuse ---------------------------------------------------------


class TestSemanticReuse:
    def test_topk_prefix_of_larger_k(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        fn = LinearScore([1.0, 1.0])
        run_warm(overlay, cache, TopKHandler(fn, 8))
        smaller = TopKHandler(fn, 4)
        warm = run_warm(overlay, cache, smaller)
        assert warm.answer == run_cold(overlay, smaller).answer
        assert warm.stats == QueryStats()   # served without running
        assert cache.semantic_hits == 1

    def test_topk_superset_region_seeds_the_floor(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 8)
        run_warm(overlay, cache, handler)
        # Top scores cluster at the maximizing corner; a corner-hugging
        # sub-box retains >= k cached candidates, so the floor seeds.
        sub = RectRegion(Rect((0.3, 0.3), (1.0, 1.0)))
        cold = run_cold(overlay, handler, sub)
        warm = run_warm(overlay, cache, handler, sub)
        assert warm.answer == cold.answer
        assert cache.semantic_hits == 1
        assert warm.stats.total_messages <= cold.stats.total_messages

    def test_skyline_subset_region_seeds_members(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = SkylineHandler(2)
        run_warm(overlay, cache, handler)
        sub = RectRegion(Rect((0.0, 0.0), (0.6, 0.6)))
        cold = run_cold(overlay, handler, sub)
        warm = run_warm(overlay, cache, handler, sub)
        assert warm.answer == cold.answer
        assert cache.semantic_hits == 1

    def test_range_subbox_is_a_pure_filter(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        run_warm(overlay, cache, RangeHandler(Rect((0.0, 0.0), (0.9, 0.9))))
        narrower = RangeHandler(Rect((0.2, 0.2), (0.7, 0.7)))
        warm = run_warm(overlay, cache, narrower)
        assert warm.answer == run_cold(overlay, narrower).answer
        assert warm.stats == QueryStats()   # exact: no network at all
        assert cache.semantic_hits == 1

    def test_seed_lookup_reports_kind(self):
        overlay = midas_network(7)
        cache = CacheDirectory(overlay)
        handler = TopKHandler(LinearScore([1.0, 1.0]), 8)
        run_warm(overlay, cache, handler)
        found = cache.lookup(
            handler, RectRegion(Rect((0.3, 0.3), (1.0, 1.0))))
        assert isinstance(found, CacheLookup)
        assert found.kind == "seed"
        assert not found.is_exact


# -- the matrix property ----------------------------------------------------


CACHEABLE = [kind for kind in OVERLAYS if kind != "can"]


class TestWarmColdMatrix:
    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(CACHEABLE),
           family=st.integers(min_value=0, max_value=2),
           seed=st.integers(min_value=0, max_value=5))
    def test_warm_equals_cold_everywhere(self, kind, family, seed):
        build, dims, strict = ENGINE_CASES[kind]
        overlay = build(seed, peers=12, tuples=80)
        handler = handlers_for(dims)[family]
        cold = run_cold(overlay, handler, strict=strict)
        cache = CacheDirectory(overlay)
        first = run_warm(overlay, cache, handler, strict=strict)
        second = run_warm(overlay, cache, handler, strict=strict)
        assert first.answer == cold.answer
        assert second.answer == cold.answer
        assert second.stats == QueryStats()
