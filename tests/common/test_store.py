"""Unit tests for the per-peer local store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.geometry import Rect, as_point
from repro.common.scoring import LinearScore
from repro.common.store import LocalStore


class TestBasics:
    def test_empty(self):
        store = LocalStore(3)
        assert len(store) == 0
        assert store.array.shape == (0, 3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            LocalStore(0)

    def test_insert_and_len(self):
        store = LocalStore(2)
        store.insert((0.1, 0.2))
        store.insert((0.3, 0.4))
        assert len(store) == 2
        assert store.array[1, 1] == pytest.approx(0.4)

    def test_insert_wrong_dims(self):
        store = LocalStore(2)
        with pytest.raises(ValueError):
            store.insert((1, 2, 3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_insert_rejects_non_finite(self, bad):
        store = LocalStore(2, [(0.1, 0.2)])
        version = store.version
        with pytest.raises(ValueError, match="finite"):
            store.insert((bad, 0.5))
        with pytest.raises(ValueError, match="finite"):
            store.insert(np.array([0.5, bad]))
        assert len(store) == 1 and store.version == version

    def test_growth_beyond_initial_capacity(self):
        store = LocalStore(1)
        for i in range(100):
            store.insert((i / 100,))
        assert len(store) == 100
        assert store.array[99, 0] == pytest.approx(0.99)

    def test_bulk_load_shape_check(self):
        store = LocalStore(2)
        with pytest.raises(ValueError):
            store.bulk_load(np.zeros((3, 3)))

    def test_array_is_read_only(self):
        store = LocalStore(2, [(0.1, 0.2)])
        with pytest.raises(ValueError):
            store.array[0, 0] = 5.0

    def test_iter_points(self):
        store = LocalStore(2, [(0.1, 0.2), (0.3, 0.4)])
        assert list(store.iter_points()) == [(0.1, 0.2), (0.3, 0.4)]


class TestExtract:
    def test_extract_moves_inside_tuples(self):
        store = LocalStore(2, [(0.1, 0.1), (0.6, 0.6), (0.2, 0.9)])
        moved = store.extract(Rect((0.0, 0.0), (0.5, 0.5)))
        assert len(moved) == 1
        assert tuple(moved[0]) == (0.1, 0.1)
        assert len(store) == 2

    def test_extract_half_open(self):
        store = LocalStore(1, [(0.5,)])
        assert len(store.extract(Rect((0.0,), (0.5,)))) == 0
        assert len(store.extract(Rect((0.5,), (1.0,)))) == 1

    def test_take_all(self):
        store = LocalStore(2, [(0.1, 0.1), (0.6, 0.6)])
        taken = store.take_all()
        assert len(taken) == 2 and len(store) == 0

    @given(st.lists(st.tuples(st.floats(0, 0.999), st.floats(0, 0.999)),
                    max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_extract_partitions(self, points):
        store = LocalStore(2, points)
        total = len(store)
        moved = store.extract(Rect((0.0, 0.0), (0.5, 1.0)))
        assert len(moved) + len(store) == total
        assert all(p[0] < 0.5 for p in moved)
        assert all(p[0] >= 0.5 for p in store.iter_points())


    @given(st.lists(st.tuples(st.floats(0.25, 0.5, exclude_max=True),
                              st.floats(0, 0.999)), max_size=40),
           st.sampled_from([0, 1]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_extract_along_the_split_dimension(self, points, dim, upper):
        """Halving a zone: one column decides, same rows in the same order."""
        zone = Rect((0.25, 0.0), (0.5, 1.0))
        half = zone.split(dim, zone.center[dim])[upper]
        full, column = LocalStore(2, points), LocalStore(2, points)
        assert np.array_equal(full.extract(half), column.extract(half, dim))
        assert np.array_equal(full.array, column.array)


class TestScans:
    def store(self):
        return LocalStore(2, [(0.9, 0.9), (0.1, 0.1), (0.5, 0.5), (0.7, 0.1)])

    def test_top_scoring_order(self):
        fn = LinearScore([1, 1])
        top = self.store().top_scoring(fn, 2)
        assert [t for _, t in top] == [(0.9, 0.9), (0.5, 0.5)]
        assert top[0][0] == pytest.approx(1.8)

    def test_top_scoring_threshold(self):
        fn = LinearScore([1, 1])
        top = self.store().top_scoring(fn, 10, above=0.9)
        assert [t for _, t in top] == [(0.9, 0.9), (0.5, 0.5)]

    def test_top_scoring_empty(self):
        fn = LinearScore([1, 1])
        assert LocalStore(2).top_scoring(fn, 3) == []
        assert self.store().top_scoring(fn, 0) == []

    def test_scoring_at_least(self):
        fn = LinearScore([1, 1])
        out = self.store().scoring_at_least(fn, 0.79)
        assert out.tolist() == [[0.9, 0.9], [0.5, 0.5], [0.7, 0.1]]

    @given(st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 0.75])] * 2),
                    max_size=12),
           st.sampled_from([-np.inf, 0.0, 0.5, 0.75, 1.5, 9.0]))
    def test_scoring_at_least_is_the_per_row_form(self, points, tau):
        """One fancy index returns the rows the row-at-a-time
        ``as_point(buf[i])`` loop did: same tuples, store order, as an
        ``(m, d)`` float block — with ties at ``tau``, empty results and
        ``tau = -inf``."""
        fn = LinearScore([1, 1])
        store = LocalStore(2, points)
        out = store.scoring_at_least(fn, tau)
        scores = fn.score_batch(store.array)
        assert list(map(tuple, out.tolist())) == [
            as_point(store.array[i]) for i in np.flatnonzero(scores >= tau)]
        assert out.dtype == float and out.shape == (len(out), 2)

    def test_scoring_at_least_inclusive(self):
        fn = LinearScore([1, 1])
        store = LocalStore(2, [(0.25, 0.25)])
        assert store.scoring_at_least(fn, 0.5).tolist() == [[0.25, 0.25]]
