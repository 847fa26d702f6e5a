"""Unit tests for the Chord overlay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NearestScore, run_fast, run_ripple, run_slow
from repro.net.routing import greedy_route
from repro.overlays.chord import ChordOverlay
from repro.overlays.skipgraph import SkipGraphOverlay
from repro.queries.topk import TopKHandler, topk_reference


class TestRing:
    def test_growth(self):
        overlay = ChordOverlay(size=20, seed=1)
        assert len(overlay) == 20
        ids = [p.ring_id for p in overlay.peers()]
        assert ids == sorted(ids)

    def test_zones_partition_ring(self):
        overlay = ChordOverlay(size=16, seed=2)
        total = sum(p.zone.length() for p in overlay.peers())
        assert total == pytest.approx(1.0)

    def test_owner(self):
        overlay = ChordOverlay(size=16, seed=3)
        for key in (0.0, 0.3, 0.999):
            owner = overlay.owner(key)
            assert owner.zone.contains(key)

    def test_departure_hands_data_to_predecessor(self):
        overlay = ChordOverlay(size=8, seed=4)
        overlay.load(np.random.default_rng(0).random((100, 1)) * 0.999)
        overlay.leave(overlay.peers()[3])
        assert len(overlay) == 7
        assert overlay.total_tuples() == 100
        total = sum(p.zone.length() for p in overlay.peers())
        assert total == pytest.approx(1.0)

    def test_cannot_remove_last(self):
        overlay = ChordOverlay(size=1)
        with pytest.raises(ValueError):
            overlay.leave()

    def test_data_at_owner(self):
        overlay = ChordOverlay(size=12, seed=5)
        overlay.load(np.random.default_rng(1).random((80, 1)) * 0.999)
        for peer in overlay.peers():
            for (key,) in peer.store.iter_points():
                assert peer.zone.contains(key)


    @pytest.mark.parametrize("build", [ChordOverlay, SkipGraphOverlay])
    def test_load_equals_the_scalar_loop(self, build):
        """One routed block per peer stores what ``owner`` + ``insert``
        row by row would: same tuples, same order, wrap-around included."""
        overlay, scalar = build(size=9, seed=7), build(size=9, seed=7)
        keys = [peer.key for peer in overlay.peers()]
        values = np.concatenate([
            [0.0, keys[0] / 2, keys[0], keys[-1], 0.999], keys[3:6],
            np.random.default_rng(7).random(60) * 0.999, [keys[0] / 3]])
        assert (values < keys[0]).sum() >= 3
        overlay.load(values)
        for value in values.tolist():
            scalar.owner(value).store.insert((value,))
        for got, expected in zip(overlay.peers(), scalar.peers()):
            assert got.store.array.tobytes() == expected.store.array.tobytes()
        untouched = [peer for peer in overlay.peers() if not len(peer.store)]
        assert all(peer.store.version == 0 for peer in untouched)


class TestFingers:
    def test_regions_partition_rest_of_ring(self):
        overlay = ChordOverlay(size=32, seed=6)
        for peer in overlay.peers():
            covered = sum(l.region.length() for l in peer.links())
            assert covered + peer.zone.length() == pytest.approx(1.0)

    def test_successor_always_linked(self):
        overlay = ChordOverlay(size=32, seed=7)
        for peer in overlay.peers():
            successor = overlay.owner(peer.zone.end)
            assert any(l.peer is successor for l in peer.links())

    def test_finger_count_logarithmic(self):
        overlay = ChordOverlay(size=128, seed=8)
        # fingers are deduplicated; +1 for the explicit successor pointer
        for peer in overlay.peers():
            assert len(peer.links()) <= overlay.finger_resolution() + 1

    def test_links_cached_until_churn(self):
        overlay = ChordOverlay(size=8, seed=9)
        peer = overlay.peers()[0]
        first = peer.links()
        assert peer.links() is first
        overlay.join()
        assert peer.links() is not first


class TestQueries:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_routing_and_topk(self, seed):
        rng = np.random.default_rng(seed)
        overlay = ChordOverlay(size=24, seed=seed)
        data = rng.random((300, 1)) * 0.999
        overlay.load(data)
        owner, path = greedy_route(overlay.random_peer(rng),
                                   (float(rng.random()),))
        assert len(path) >= 1
        fn = NearestScore((float(rng.random()),))
        ref = [s for s, _ in topk_reference(data, fn, 3)]
        handler = TopKHandler(fn, 3)
        for run in (run_fast, run_slow):
            res = run(overlay.random_peer(rng), handler,
                      restriction=overlay.domain())
            assert [s for s, _ in res.answer] == pytest.approx(ref)

    def test_strict_mode_holds(self):
        """Chord finger regions partition exactly: no double visits."""
        overlay = ChordOverlay(size=48, seed=10)
        overlay.load(np.random.default_rng(2).random((500, 1)) * 0.999)
        handler = TopKHandler(NearestScore((0.5,)), 4)
        for r in (0, 2, 10 ** 9):
            run_ripple(overlay.random_peer(), handler, r,
                       restriction=overlay.domain(), strict=True)
