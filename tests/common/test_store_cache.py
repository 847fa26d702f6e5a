"""The store's version counter and version-keyed computation cache."""

import numpy as np
import pytest

from repro.common.geometry import Rect
from repro.common.scoring import LinearScore, NearestScore
from repro.common.store import LocalStore, _CACHE_CAP
from repro.overlays.midas import MidasOverlay
from repro.queries.skyline import distributed_skyline, skyline_reference


class TestVersion:
    def test_starts_at_zero(self):
        assert LocalStore(2).version == 0

    def test_every_mutation_bumps(self):
        store = LocalStore(2)
        store.insert((0.1, 0.2))
        assert store.version == 1
        store.bulk_load(np.array([[0.3, 0.4], [0.5, 0.6]]))
        assert store.version == 2
        store.extract(Rect((0.0, 0.0), (0.4, 0.5)))
        assert store.version == 3
        store.take_all()
        assert store.version == 4

    def test_reads_do_not_bump(self):
        store = LocalStore(2, [(0.1, 0.2), (0.3, 0.1)])
        before = store.version
        store.array
        list(store.iter_points())
        store.top_scoring(LinearScore((1.0, 1.0)), 2)
        store.cached("probe", lambda: 42)
        assert store.version == before


class TestCached:
    def test_computes_once_per_version(self):
        store = LocalStore(2, [(0.1, 0.2)])
        calls = []
        compute = lambda: calls.append(1) or len(store)  # noqa: E731
        assert store.cached("k", compute) == 1
        assert store.cached("k", compute) == 1
        assert len(calls) == 1
        assert (store.cache_hits, store.cache_misses) == (1, 1)

    def test_mutation_invalidates(self):
        store = LocalStore(2, [(0.1, 0.2)])
        assert store.cached("n", lambda: len(store)) == 1
        store.insert((0.3, 0.4))
        assert store.cached("n", lambda: len(store)) == 2

    def test_distinct_keys_are_independent(self):
        store = LocalStore(2)
        assert store.cached(("a", 1), lambda: "x") == "x"
        assert store.cached(("a", 2), lambda: "y") == "y"
        assert store.cached(("a", 1), lambda: "z") == "x"

    def test_disabled_cache_always_computes(self):
        store = LocalStore(2)
        calls = []
        try:
            LocalStore.cache_enabled = False
            store.cached("k", lambda: calls.append(1))
            store.cached("k", lambda: calls.append(1))
        finally:
            LocalStore.cache_enabled = True
        assert len(calls) == 2
        assert store.cache_hits == 0

    def test_cap_bounds_table_size(self):
        store = LocalStore(2)
        for i in range(3 * _CACHE_CAP):
            store.cached(("key", i), lambda: i)
        assert len(store._cache) <= _CACHE_CAP

    def test_one_more_than_cap_evicts_the_oldest_untouched_key(self):
        store = LocalStore(2)
        for i in range(_CACHE_CAP):
            store.cached(("key", i), lambda: i)
        store.cached(("key", 0), lambda: "recomputed")  # touch the oldest
        store.cached(("key", _CACHE_CAP), lambda: "new")
        assert ("key", 1) not in store._cache
        assert set(store._cache) == {("key", i)
                                     for i in range(_CACHE_CAP + 1)} \
            - {("key", 1)}
        assert store.cached(("key", 0), lambda: "recomputed") == 0

    def test_prime_at_cap_evicts_one_entry(self):
        store = LocalStore(2)
        for i in range(_CACHE_CAP):
            store.cached(("key", i), lambda: i)
        store.prime("primed", "value")
        assert len(store._cache) == _CACHE_CAP
        assert ("key", 0) not in store._cache and "primed" in store._cache

    def test_mutation_still_drops_every_entry(self):
        store = LocalStore(2)
        for i in range(_CACHE_CAP):
            store.cached(("key", i), lambda: i)
        store.insert((0.5, 0.5))
        assert not store._cache

    def test_equal_scoring_functions_share_one_index(self):
        rng = np.random.default_rng(4)
        store = LocalStore(3)
        store.bulk_load(rng.random((50, 3)))
        first = store.top_scoring(LinearScore([0.5, 0.3, 0.2]), 5)
        hits, misses = store.cache_hits, store.cache_misses
        again = store.top_scoring(LinearScore([0.5, 0.3, 0.2]), 5)
        assert again == first
        assert (store.cache_hits, store.cache_misses) == (hits + 1, misses)
        near = NearestScore((0.5, 0.5, 0.5), p=1)
        store.top_scoring(near, 5)
        misses = store.cache_misses
        store.top_scoring(NearestScore((0.5, 0.5, 0.5), p=1), 5)
        store.top_scoring(NearestScore((0.5, 0.5, 0.5), p=2), 5)
        assert store.cache_misses == misses + 1  # only p=2 is another function

    def test_top_scoring_prefix_and_tie_order(self):
        store = LocalStore(2, [(0.2, 0.2), (0.4, 0.0), (0.1, 0.1), (0.0, 0.4)])
        fn = LinearScore((1.0, 1.0))
        expected = [(0.4, (0.2, 0.2)), (0.4, (0.4, 0.0)), (0.4, (0.0, 0.4)),
                    (0.2, (0.1, 0.1))]
        for _ in range(2):  # cold index, then the memo hit
            assert store.top_scoring(fn, 10) == expected
            assert store.top_scoring(fn, 2) == expected[:2]
            assert store.top_scoring(fn, 10, above=0.4) == expected[:3]
            assert store.top_scoring(fn, 10, above=0.5) == []
        assert all(type(score) is float and type(value) is float
                   for score, point in store.top_scoring(fn, 10)
                   for value in point)

    def test_score_index_reused_across_scans(self):
        rng = np.random.default_rng(3)
        store = LocalStore(3)
        store.bulk_load(rng.random((200, 3)))
        fn = LinearScore((0.5, 0.3, 0.2))
        store.top_scoring(fn, 5)
        misses = store.cache_misses
        store.top_scoring(fn, 10, above=0.5)
        store.scoring_at_least(fn, 0.9)
        assert store.cache_misses == misses  # one index served all scans


class TestExtractEdgeCases:
    def test_empty_rect_moves_nothing_but_invalidates(self):
        store = LocalStore(2, [(0.5, 0.5), (0.8, 0.2)])
        cached = store.cached("probe", lambda: "old")
        assert cached == "old"
        moved = store.extract(Rect((0.0, 0.0), (0.1, 0.1)))
        assert len(moved) == 0
        assert len(store) == 2
        assert store.cached("probe", lambda: "new") == "new"

    def test_full_extraction_empties_store(self):
        store = LocalStore(2, [(0.2, 0.3), (0.4, 0.1)])
        moved = store.extract(Rect((0.0, 0.0), (1.0, 1.0)))
        assert len(moved) == 2
        assert len(store) == 0
        assert store.array.shape == (0, 2)

    def test_dim_mismatch_raises(self):
        store = LocalStore(2, [(0.2, 0.3)])
        with pytest.raises(ValueError):
            store.extract(Rect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))

    def test_take_all_then_reload(self):
        store = LocalStore(2, [(0.2, 0.3), (0.4, 0.1)])
        store.cached("probe", lambda: "stale")
        out = store.take_all()
        assert out.shape == (2, 2)
        store.bulk_load(out)
        assert store.cached("probe", lambda: "fresh") == "fresh"
        assert np.array_equal(np.sort(store.array, axis=0), np.sort(out, axis=0))


class TestInvalidationAcrossTopologyChanges:
    """Zone splits (grow) and merges (leave) move tuples via extract /
    take_all, so every warm per-peer cache along the way must drop."""

    def test_skyline_stays_correct_through_split_and_merge(self):
        rng = np.random.default_rng(11)
        data = rng.random((400, 2)) * 0.999
        overlay = MidasOverlay(2, size=1, seed=5, join_policy="data")
        overlay.load(data)
        overlay.grow_to(8)
        reference = skyline_reference(data)

        def query():
            return distributed_skyline(
                overlay.random_peer(np.random.default_rng(1)), 2,
                restriction=overlay.domain(), r=1).answer

        assert query() == reference  # warms every store's skyline cache
        overlay.grow_to(20)          # splits: extract() on warm stores
        assert query() == reference
        overlay.shrink_to(6)         # merges: take_all() on warm stores
        assert query() == reference
        assert sum(len(p.store) for p in overlay.peers()) == len(data)

    def test_no_warm_score_index_survives_a_split_or_merge(self):
        """Every peer's score index, warmed before the topology change,
        answers like a cold store over the same rows afterwards — however
        the split or merge moved the tuples."""
        overlay = MidasOverlay(2, size=1, seed=6, join_policy="data")
        overlay.load(np.random.default_rng(12).random((600, 2)) * 0.999)
        overlay.grow_to(8)
        fn = LinearScore([1.0, 2.0])

        def warm_then(change):
            for peer in overlay.peers():
                peer.store.top_scoring(fn, 5)
            change()
            for peer in overlay.peers():
                cold = LocalStore(2, peer.store.array)
                assert peer.store.top_scoring(fn, 5) == \
                    cold.top_scoring(fn, 5)

        warm_then(lambda: overlay.grow_to(24))
        warm_then(lambda: overlay.shrink_to(6))
