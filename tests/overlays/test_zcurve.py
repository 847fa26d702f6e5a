"""Unit tests for the Z-order codec and range decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlays.zcurve import ZCurve


class TestEncode:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZCurve(0, 4)
        with pytest.raises(ValueError):
            ZCurve(8, 10)  # 80 bits > 62

    def test_known_2d(self):
        zc = ZCurve(2, 1)
        # one bit per dim: quadrants in Z order
        assert zc.encode((0.0, 0.0)) == 0
        assert zc.encode((0.0, 0.7)) == 1
        assert zc.encode((0.7, 0.0)) == 2
        assert zc.encode((0.7, 0.7)) == 3

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            ZCurve(2, 4).encode((0.5,))

    def test_batch_matches_scalar(self):
        zc = ZCurve(3, 6)
        rng = np.random.default_rng(0)
        pts = rng.random((50, 3))
        keys = zc.encode_batch(pts)
        for point, key in zip(pts, keys):
            assert zc.encode(tuple(point)) == key

    def test_monotone_in_cell(self):
        zc = ZCurve(2, 4)
        assert 0 <= zc.encode((0.99, 0.99)) <= zc.max_key

    @given(st.floats(0, 0.999), st.floats(0, 0.999))
    @settings(max_examples=50, deadline=None)
    def test_key_cell_roundtrip(self, x, y):
        """A point's key prefix cell always contains the point."""
        zc = ZCurve(2, 5)
        key = zc.encode((x, y))
        cell = zc.cell_rect(key, zc.total_bits)
        assert cell.contains((x, y), closed=True)


class TestCells:
    def test_root_cell(self):
        zc = ZCurve(3, 4)
        assert zc.cell_rect(0, 0).volume() == pytest.approx(1.0)

    def test_prefix_bits_validation(self):
        zc = ZCurve(2, 3)
        with pytest.raises(ValueError):
            zc.cell_rect(0, 99)

    def test_cell_shape_alternates_dims(self):
        zc = ZCurve(2, 4)
        half = zc.cell_rect(0, 1)
        assert half.hi[0] - half.lo[0] == 0.5
        assert half.hi[1] - half.lo[1] == 1.0
        quarter = zc.cell_rect(0, 2)
        assert quarter.hi[0] - quarter.lo[0] == 0.5
        assert quarter.hi[1] - quarter.lo[1] == 0.5


class TestRangeCells:
    def test_full_range_is_root(self):
        zc = ZCurve(2, 5)
        cells = list(zc.range_cells(0, zc.max_key))
        assert cells == [(0, 0)]

    def test_empty_range(self):
        zc = ZCurve(2, 5)
        assert list(zc.range_cells(5, 4)) == []

    def test_cell_count_logarithmic(self):
        zc = ZCurve(2, 10)
        cells = list(zc.range_cells(12345, 987654))
        assert len(cells) <= 2 * zc.total_bits

    @given(st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cover_is_exact_partition(self, a, b):
        """Cells cover exactly the keys in [lo, hi], without overlap."""
        zc = ZCurve(2, 5)  # 10-bit keys, enumerable
        lo, hi = min(a, b), max(a, b)
        covered = set()
        for prefix, bits in zc.range_cells(lo, hi):
            shift = zc.total_bits - bits
            start = prefix << shift
            block = set(range(start, start + (1 << shift)))
            assert not block & covered, "overlapping cells"
            covered |= block
        assert covered == set(range(lo, hi + 1))

    def test_range_rects_area(self):
        zc = ZCurve(2, 6)
        lo, hi = 100, 1000
        area = sum(r.volume() for r in zc.range_rects(lo, hi))
        assert area == pytest.approx((hi - lo + 1) / (zc.max_key + 1))
