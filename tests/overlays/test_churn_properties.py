"""Property tests: overlay invariants survive arbitrary churn.

The region-partition properties RIPPLE's correctness rests on must hold
not just on freshly built networks but after any interleaving of joins
and departures with data in place.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.overlays.can import CanOverlay
from repro.overlays.chord import ChordOverlay
from repro.overlays.midas import MidasOverlay
from repro.overlays.skipgraph import SkipGraphOverlay

from tests.netlib import ring_arc

churn_params = st.tuples(st.integers(0, 10 ** 6),
                         st.lists(st.booleans(), min_size=5, max_size=40))

relaxed = settings(max_examples=15, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def churn(overlay, plan, rng):
    for join in plan:
        if join or len(overlay) <= 2:
            overlay.join()
        else:
            overlay.leave()


class TestMidasChurn:
    @given(churn_params)
    @relaxed
    def test_link_regions_partition_after_churn(self, params):
        seed, plan = params
        rng = np.random.default_rng(seed)
        overlay = MidasOverlay(2, size=8, seed=seed, join_policy="data")
        overlay.load(rng.random((120, 2)) * 0.999)
        churn(overlay, plan, rng)
        for peer in list(overlay.peers())[::3]:
            covered = peer.zone.volume() + sum(
                link.region.rect.volume() for link in peer.links())
            assert covered == pytest.approx(1.0)
            for link in peer.links():
                assert link.region.rect.contains_rect(link.peer.zone)

    @given(churn_params)
    @relaxed
    def test_queries_stay_exact_after_churn(self, params):
        from repro import LinearScore, run_ripple
        from repro.queries.topk import TopKHandler, topk_reference

        seed, plan = params
        rng = np.random.default_rng(seed)
        data = rng.random((150, 2)) * 0.999
        overlay = MidasOverlay(2, size=8, seed=seed, join_policy="data")
        overlay.load(data)
        churn(overlay, plan, rng)
        fn = LinearScore([1, 1])
        result = run_ripple(overlay.random_peer(rng), TopKHandler(fn, 4), 0,
                            restriction=overlay.domain())
        assert [s for s, _ in result.answer] == \
            [s for s, _ in topk_reference(data, fn, 4)]


class TestChordChurn:
    @given(churn_params)
    @relaxed
    def test_arc_regions_partition_after_churn(self, params):
        seed, plan = params
        overlay = ChordOverlay(size=8, seed=seed)
        churn(overlay, plan, None)
        for peer in list(overlay.peers())[::3]:
            covered = ring_arc(peer).length() + sum(
                link.region.length() for link in peer.links())
            assert covered == pytest.approx(1.0)


class TestCanChurn:
    @given(churn_params)
    @relaxed
    def test_neighbor_symmetry_after_churn(self, params):
        seed, plan = params
        rng = np.random.default_rng(seed)
        overlay = CanOverlay(2, size=8, seed=seed)
        churn(overlay, plan, rng)
        for peer in list(overlay.peers())[::3]:
            for adj in peer.neighbors():
                assert peer in [a.peer for a in adj.peer.neighbors()]

    @given(churn_params)
    @relaxed
    def test_frustums_cover_domain_after_churn(self, params):
        seed, plan = params
        rng = np.random.default_rng(seed)
        overlay = CanOverlay(2, size=8, seed=seed)
        churn(overlay, plan, rng)
        peer = overlay.random_peer(rng)
        links = peer.links()
        for _ in range(25):
            point = tuple(rng.random(2))
            if peer.zone.contains(point):
                continue
            assert any(link.region.contains(point) for link in links)


class TestSkipGraphChurn:
    @given(churn_params)
    @relaxed
    def test_arc_regions_partition_after_churn(self, params):
        seed, plan = params
        overlay = SkipGraphOverlay(size=8, seed=seed)
        churn(overlay, plan, None)
        for peer in list(overlay.peers())[::3]:
            covered = ring_arc(peer).length() + sum(
                link.region.length() for link in peer.links())
            assert covered == pytest.approx(1.0)

    @given(churn_params)
    @relaxed
    def test_degree_bound_survives_churn(self, params):
        # the constant-degree guarantee must hold on every churned shape,
        # not just freshly built networks
        seed, plan = params
        overlay = SkipGraphOverlay(size=8, seed=seed)
        churn(overlay, plan, None)
        assert overlay.max_links() <= SkipGraphOverlay.MAX_DEGREE

    @given(churn_params)
    @relaxed
    def test_queries_stay_exact_after_churn(self, params):
        from repro import LinearScore, run_ripple
        from repro.queries.topk import TopKHandler, topk_reference

        seed, plan = params
        rng = np.random.default_rng(seed)
        data = rng.random((150, 1)) * 0.999
        overlay = SkipGraphOverlay(size=8, seed=seed)
        overlay.load(data)
        churn(overlay, plan, rng)
        fn = LinearScore([1.0])
        result = run_ripple(overlay.random_peer(rng), TopKHandler(fn, 4), 0,
                            restriction=overlay.domain())
        assert [s for s, _ in result.answer] == \
            [s for s, _ in topk_reference(data, fn, 4)]
