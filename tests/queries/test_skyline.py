"""Unit and integration tests for distributed skylines (Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MidasOverlay, dominates
from repro.common.geometry import Rect, as_point, mindist
from repro.common.store import LocalStore
from repro.core.regions import ArcRegion, RectRegion
from repro.queries.skyline import (
    SkylineHandler,
    distributed_skyline,
    skyline_of,
    skyline_of_array,
    skyline_reference,
)

point_lists = st.lists(
    st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)), max_size=60)


class TestSkylineOf:
    def test_simple(self):
        pts = [(0.5, 0.5), (0.2, 0.8), (0.6, 0.6), (0.8, 0.1)]
        assert sorted(skyline_of(pts)) == [(0.2, 0.8), (0.5, 0.5), (0.8, 0.1)]

    def test_empty(self):
        assert skyline_of([]) == []

    def test_duplicates_collapse(self):
        assert skyline_of([(0.5, 0.5), (0.5, 0.5)]) == [(0.5, 0.5)]

    @given(point_lists)
    @settings(max_examples=40, deadline=None)
    def test_skyline_properties(self, pts):
        sky = skyline_of(pts)
        # no member dominates another
        for a in sky:
            for b in sky:
                assert not dominates(a, b)
        # every point is dominated by or equal to some skyline member
        for p in set(pts):
            assert p in sky or any(dominates(s, p) for s in sky)

    @given(point_lists)
    @settings(max_examples=40, deadline=None)
    def test_array_version_agrees(self, pts):
        arr = np.array(pts, dtype=float).reshape(-1, 2)
        from_array = sorted({as_point(r) for r in skyline_of_array(arr)})
        assert from_array == sorted(skyline_of(pts))


def points(state):
    """A handler state (rows) as the list of points it holds."""
    return [as_point(row) for row in state]


class TestHandler:
    def test_compute_local_state_filters_dominated(self):
        h = SkylineHandler(2)
        store = LocalStore(2, [(0.5, 0.5), (0.9, 0.9)])
        state = h.compute_local_state(store, ((0.1, 0.1),))
        # local skyline fully dominated by global view
        assert points(state) == []

    def test_compute_local_state_keeps_survivors(self):
        h = SkylineHandler(2)
        store = LocalStore(2, [(0.5, 0.1), (0.9, 0.9)])
        state = h.compute_local_state(store, ((0.1, 0.5),))
        assert points(state) == [(0.5, 0.1)]

    def test_global_state_is_merged_skyline(self):
        h = SkylineHandler(2)
        merged = h.compute_global_state(((0.1, 0.9),), ((0.5, 0.5), (0.2, 0.8)))
        assert points(merged) == [(0.1, 0.9), (0.2, 0.8), (0.5, 0.5)]

    def test_update_local_state_unions(self):
        h = SkylineHandler(2)
        merged = h.update_local_state([((0.1, 0.9),), ((0.9, 0.1),),
                                       ((0.5, 0.5),)])
        assert len(merged) == 3

    def test_link_pruned_when_dominated(self):
        h = SkylineHandler(2)
        region = RectRegion(Rect((0.5, 0.5), (1.0, 1.0)))
        assert not h.is_link_relevant(region, ((0.2, 0.2),))
        assert h.is_link_relevant(region, ((0.2, 0.6),))

    def test_priority_prefers_origin(self):
        h = SkylineHandler(2)
        near = RectRegion(Rect((0.0, 0.0), (0.2, 0.2)))
        far = RectRegion(Rect((0.5, 0.5), (1.0, 1.0)))
        assert h.link_priority(near) < h.link_priority(far)

    @given(st.data(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_priority_is_mindist_bit_for_bit(self, data, dims):
        """Origins and boxes anywhere: inside, outside, straddling, on a
        face; a ring arc's cover has two boxes."""
        coords = st.sampled_from([-0.5, -0.0, 0.0, 0.1, 1 / 3, 0.5, 0.7,
                                  1.0, 1.5])
        origin = data.draw(st.lists(coords, min_size=dims, max_size=dims))
        h = SkylineHandler(dims, origin=origin)
        sides = [sorted(data.draw(st.lists(coords, min_size=2, max_size=2)))
                 for _ in range(dims)]
        rect = Rect(tuple(lo for lo, _ in sides), tuple(hi for _, hi in sides))
        regions = [RectRegion(rect)]
        if dims == 1:
            regions.append(ArcRegion(((0.0, 0.2), (0.7, 1.0))))
        for region in regions:
            want = min(mindist(h.origin, box) for box in region.cover())
            assert h.link_priority(region).hex() == want.hex()

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            SkylineHandler(0)

    @pytest.mark.parametrize("constraint", [
        Rect((float("nan"), 0.0), (1.0, 1.0)),
        Rect((0.0, 0.0), (float("inf"), 1.0)),
        Rect((0.2, 0.2), (0.2, 0.9)),            # zero extent: selects nothing
        Rect((0.0, 0.5), (1.0, 0.5)),
    ])
    def test_constraints_that_select_nothing_are_rejected(self, constraint):
        with pytest.raises(ValueError, match="constraint"):
            SkylineHandler(2, constraint=constraint)

    @pytest.mark.parametrize("origin", [
        (float("nan"), 0.0), (0.0, float("-inf")), (0.0,), (0.0, 0.0, 0.0)])
    def test_origins_must_be_finite_dims_vectors(self, origin):
        with pytest.raises(ValueError, match="origin"):
            SkylineHandler(2, origin=origin)

    def test_distributed_skyline_rejects_before_any_peer(self):
        overlay = MidasOverlay(2, size=4, seed=1)
        with pytest.raises(ValueError, match="constraint"):
            distributed_skyline(overlay.peers()[0], 2,
                                restriction=overlay.domain(),
                                constraint=Rect((float("nan"), 0.0),
                                                (1.0, 1.0)))

    def test_valid_constraints_and_origins_still_build(self):
        box = Rect((0.1, 0.2), (0.3, 0.9))
        assert SkylineHandler(2, constraint=box).origin == box.lo
        assert SkylineHandler(2, origin=[1, 0]).origin == (1.0, 0.0)


class TestDistributed:
    @pytest.fixture(scope="class")
    def network(self):
        rng = np.random.default_rng(5)
        data = rng.random((700, 3)) * 0.999
        overlay = MidasOverlay(3, size=1, seed=21, join_policy="data")
        overlay.load(data)
        overlay.grow_to(80)
        return overlay, data

    def test_matches_reference_all_modes(self, network):
        overlay, data = network
        ref = skyline_reference(data)
        for r in (0, 2, 10 ** 6):
            res = distributed_skyline(overlay.random_peer(), 3,
                                      restriction=overlay.domain(), r=r)
            assert res.answer == ref

    def test_cold_matches_reference(self, network):
        overlay, data = network
        ref = skyline_reference(data)
        res = distributed_skyline(overlay.random_peer(), 3,
                                  restriction=overlay.domain(), r=0,
                                  seeded=False)
        assert res.answer == ref

    def test_boundary_policy_correct_and_cheaper_shipping(self):
        rng = np.random.default_rng(9)
        data = rng.random((1200, 2)) * 0.999
        results = {}
        for policy in ("random", "boundary"):
            overlay = MidasOverlay(2, size=1, seed=31, link_policy=policy,
                                   join_policy="data")
            overlay.load(data)
            overlay.grow_to(128)
            ref = skyline_reference(data)
            res = distributed_skyline(overlay.random_peer(), 2,
                                      restriction=overlay.domain(), r=10 ** 6)
            assert res.answer == ref
            results[policy] = res.stats
        # Section 5.2: boundary-aware links reduce wasted traffic.
        assert results["boundary"].tuples_shipped <= \
            2 * results["random"].tuples_shipped

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=8, deadline=None)
    def test_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((150, 2)) * 0.999
        overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
        overlay.load(data)
        overlay.grow_to(20)
        res = distributed_skyline(overlay.random_peer(rng), 2,
                                  restriction=overlay.domain(),
                                  r=int(rng.integers(0, 5)))
        assert res.answer == skyline_reference(data)
