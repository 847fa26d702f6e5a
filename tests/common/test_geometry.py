"""Unit tests for geometric primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.geometry import (
    Frustum,
    Interval,
    Rect,
    contains_batch,
    dominates,
    maxdist,
    mindist,
    mindist_batch,
    minkowski_distance,
)
from repro.core.regions import ArcRegion

points = st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=5)


class TestDistances:
    def test_l1(self):
        assert minkowski_distance((0, 0), (1, 2), 1) == 3

    def test_l2(self):
        assert minkowski_distance((0, 0), (3, 4), 2) == 5

    def test_linf(self):
        assert minkowski_distance((0, 0), (3, 4), math.inf) == 4

    def test_general_p(self):
        assert minkowski_distance((0,), (2,), 3) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_distance((0, 0), (1, 2, 3), 1)

    @given(points, points)
    def test_metric_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = tuple(a[:n]), tuple(b[:n])
        for p in (1, 2, math.inf):
            assert minkowski_distance(a, b, p) == pytest.approx(
                minkowski_distance(b, a, p))

    @given(points)
    def test_identity(self, a):
        assert minkowski_distance(a, a, 2) == 0.0


class TestDominance:
    def test_strict(self):
        assert dominates((0, 0), (1, 1))

    def test_partial_tie(self):
        assert dominates((0, 1), (1, 1))

    def test_equal_points_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_incomparable(self):
        assert not dominates((0, 2), (1, 1))
        assert not dominates((1, 1), (0, 2))

    @given(points, points)
    def test_antisymmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = tuple(a[:n]), tuple(b[:n])
        assert not (dominates(a, b) and dominates(b, a))


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect((0.5,), (0.2,))
        with pytest.raises(ValueError):
            Rect((0, 0), (1,))

    def test_unit(self):
        r = Rect.unit(3)
        assert r.lo == (0, 0, 0) and r.hi == (1, 1, 1)
        assert r.volume() == 1.0

    def test_contains_half_open(self):
        r = Rect((0, 0), (0.5, 0.5))
        assert r.contains((0, 0))
        assert not r.contains((0.5, 0.2))
        assert r.contains((0.5, 0.2), closed=True)

    def test_split_partitions(self):
        r = Rect.unit(2)
        lo, hi = r.split(0, 0.3)
        assert lo.hi[0] == 0.3 and hi.lo[0] == 0.3
        assert lo.volume() + hi.volume() == pytest.approx(1.0)
        # every point belongs to exactly one half (half-open)
        for p in [(0.1, 0.5), (0.3, 0.5), (0.9, 0.5)]:
            assert lo.contains(p) != hi.contains(p)

    def test_split_out_of_range(self):
        with pytest.raises(ValueError):
            Rect.unit(2).split(0, 1.5)

    def test_intersection(self):
        a = Rect((0, 0), (0.5, 0.5))
        b = Rect((0.25, 0.25), (1, 1))
        ab = a.intersection(b)
        assert ab == Rect((0.25, 0.25), (0.5, 0.5))

    def test_abutting_is_empty(self):
        a = Rect((0, 0), (0.5, 1))
        b = Rect((0.5, 0), (1, 1))
        assert a.intersection(b) is None
        assert a.intersects(b)  # closed boxes share a face

    def test_corner(self):
        r = Rect((0, 0), (1, 2))
        assert r.corner((True, False)) == (1, 0)

    def test_clamp(self):
        r = Rect((0, 0), (1, 1))
        assert r.clamp((2, -1)) == (1, 0)
        assert r.clamp((0.3, 0.7)) == (0.3, 0.7)

    def test_dominated_by(self):
        r = Rect((0.5, 0.5), (1, 1))
        assert r.dominated_by((0.2, 0.2))
        assert not r.dominated_by((0.5, 0.5))  # equals lo, no strict gain
        assert not r.dominated_by((0.6, 0.1))

    def test_mindist_maxdist(self):
        r = Rect((0, 0), (1, 1))
        assert mindist((2, 0), r) == 1.0
        assert maxdist((2, 0), r) == pytest.approx(math.sqrt(5))
        assert mindist((0.5, 0.5), r) == 0.0

    def test_sample_inside(self):
        rng = np.random.default_rng(0)
        r = Rect((0.2, 0.4), (0.3, 0.9))
        for _ in range(20):
            assert r.contains(r.sample(rng), closed=True)


class TestInterval:
    """A ring zone's ``Interval`` under ``ArcRegion``'s arc algebra (the
    form ``RingOverlay.join`` splits a store with): half-open, wrapping
    past 1.0, and ``start == end`` as the full ring."""

    def test_plain(self):
        arc = ArcRegion.from_interval(Interval(0.2, 0.6))
        assert arc.contains((0.2,)) and arc.contains((0.5,))
        assert not arc.contains((0.6,)) and not arc.contains((0.9,))
        assert arc.length() == pytest.approx(0.4)

    def test_wrapping(self):
        arc = ArcRegion.from_interval(Interval(0.8, 0.1))
        assert arc.contains((0.9,)) and arc.contains((0.05,))
        assert not arc.contains((0.5,))
        assert arc.length() == pytest.approx(0.3)

    def test_full_ring(self):
        arc = ArcRegion.from_interval(Interval(0.3, 0.3))
        assert arc.contains((0.0,)) and arc.contains((0.99,))
        assert arc.length() == 1.0

    def test_intersection_plain(self):
        a = ArcRegion.from_interval(Interval(0.1, 0.5))
        b = ArcRegion.from_interval(Interval(0.3, 0.8))
        assert a.intersect(b) == ArcRegion(((0.3, 0.5),))

    def test_intersection_disjoint(self):
        a = ArcRegion.from_interval(Interval(0.1, 0.2))
        assert a.intersect(ArcRegion.from_interval(Interval(0.5, 0.6))) \
            is None

    def test_intersection_with_wrap(self):
        a = ArcRegion.from_interval(Interval(0.8, 0.2))
        b = ArcRegion.from_interval(Interval(0.9, 0.95))
        assert a.intersect(b) == ArcRegion(((0.9, 0.95),))

    def test_intersection_full(self):
        full = ArcRegion.from_interval(Interval(0.0, 0.0))
        part = ArcRegion.from_interval(Interval(0.2, 0.4))
        assert full.intersect(part) == part


class TestFrustum:
    def frustum(self):
        # 2-d trapezoid: base = whole lower domain edge, top = zone face.
        base = Rect((0.0, 0.0), (1.0, 0.0))
        top = Rect((0.25, 0.5), (0.75, 0.5))
        return Frustum(axis=1, base=base, top=top)

    def test_contains_base_and_top(self):
        f = self.frustum()
        assert f.contains((0.5, 0.0))
        assert f.contains((0.5, 0.5))
        assert f.contains((0.01, 0.0))
        assert not f.contains((0.01, 0.5))

    def test_interpolated_side(self):
        f = self.frustum()
        # at t = 0.5 the cross-section is [0.125, 0.875]
        assert f.contains((0.13, 0.25))
        assert not f.contains((0.12, 0.25))

    def test_outside_axis_range(self):
        f = self.frustum()
        assert not f.contains((0.5, 0.6))

    def test_bounding_box(self):
        box = self.frustum().bounding_box()
        assert box == Rect((0.0, 0.0), (1.0, 0.5))


class TestBatchKernels:
    """The arena's array twins reproduce the scalar predicates exactly."""

    def _boxes(self, seed, m=40, d=3):
        rng = np.random.default_rng(seed)
        corners = rng.random((2, m, d))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        return rng.random((m, d)), lo, hi

    def test_contains_batch_matches_scalar(self):
        points_, lo, hi = self._boxes(3)
        for closed in (False, True):
            got = contains_batch(points_, lo, hi, closed=closed)
            for i in range(len(points_)):
                rect = Rect(tuple(lo[i]), tuple(hi[i]))
                assert got[i] == rect.contains(tuple(points_[i]),
                                               closed=closed)

    def test_contains_batch_broadcasts_one_box(self):
        points_, lo, hi = self._boxes(5)
        rect = Rect(tuple(lo[0]), tuple(hi[0]))
        got = contains_batch(points_, lo[0], hi[0])
        for i in range(len(points_)):
            assert got[i] == rect.contains(tuple(points_[i]))

    @pytest.mark.parametrize("p", (1, 2, math.inf))
    def test_mindist_batch_bit_identical(self, p):
        points_, lo, hi = self._boxes(7)
        query = tuple(points_[0])
        got = mindist_batch(query, lo, hi, p=p)
        for i in range(len(lo)):
            rect = Rect(tuple(lo[i]), tuple(hi[i]))
            assert got[i] == mindist(query, rect, p)

    @pytest.mark.parametrize("p", (1, math.inf))
    @pytest.mark.parametrize("d", (8, 9, 16))
    def test_mindist_batch_bit_identical_past_eight_dimensions(self, p, d):
        # ndarray.sum pairs terms up from eight on; the scalar adds left
        # to right, and so must the batch.
        points_, lo, hi = self._boxes(13, m=200, d=d)
        query = tuple(points_[0])
        got = mindist_batch(query, lo, hi, p=p)
        for i in range(len(lo)):
            rect = Rect(tuple(lo[i]), tuple(hi[i]))
            assert got[i] == mindist(query, rect, p)

    @given(st.integers(0, 50))
    def test_mindist_batch_property(self, seed):
        points_, lo, hi = self._boxes(seed, m=12, d=2)
        query = tuple(points_[0])
        got = mindist_batch(query, lo, hi)
        for i in range(len(lo)):
            assert got[i] == mindist(query, Rect(tuple(lo[i]),
                                                 tuple(hi[i])))
