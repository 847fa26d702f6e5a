"""Unit tests for scoring functions and their region bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.geometry import Rect
from repro.common.scoring import LinearScore, NearestScore, ScoringFunction


class TestLinearScore:
    def test_score(self):
        fn = LinearScore([1, 2])
        assert fn.score((0.5, 0.25)) == pytest.approx(1.0)

    def test_batch_matches_scalar(self):
        fn = LinearScore([1, -1, 0.5])
        arr = np.random.default_rng(0).random((20, 3))
        batch = fn.score_batch(arr)
        for row, s in zip(arr, batch):
            assert s == pytest.approx(fn.score(row))

    def test_upper_bound_at_corner(self):
        fn = LinearScore([1, -1])
        rect = Rect((0.2, 0.3), (0.6, 0.9))
        assert fn.upper_bound(rect) == pytest.approx(0.6 - 0.3)

    def test_peak(self):
        fn = LinearScore([1, -1])
        assert fn.peak(Rect.unit(2)) == (1.0, 0.0)

    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=4))
    def test_upper_bound_dominates_samples(self, weights):
        fn = LinearScore(weights)
        rect = Rect((0.1,) * len(weights), (0.7,) * len(weights))
        rng = np.random.default_rng(0)
        bound = fn.upper_bound(rect)
        for _ in range(25):
            assert fn.score(rect.sample(rng)) <= bound + 1e-9


class TestNearestScore:
    def test_score_is_negative_distance(self):
        fn = NearestScore((0.0, 0.0))
        assert fn.score((3, 4)) == pytest.approx(-5.0)

    def test_l1_variant(self):
        fn = NearestScore((0.0, 0.0), p=1)
        assert fn.score((3, 4)) == pytest.approx(-7.0)

    def test_batch_matches_scalar(self):
        fn = NearestScore((0.5, 0.5, 0.5), p=2)
        arr = np.random.default_rng(1).random((20, 3))
        batch = fn.score_batch(arr)
        for row, s in zip(arr, batch):
            assert s == pytest.approx(fn.score(row))

    def test_upper_bound_zero_when_inside(self):
        fn = NearestScore((0.5, 0.5))
        assert fn.upper_bound(Rect.unit(2)) == 0.0

    def test_upper_bound_outside(self):
        fn = NearestScore((2.0, 0.5))
        assert fn.upper_bound(Rect.unit(2)) == pytest.approx(-1.0)

    def test_peak_is_clamped_query(self):
        fn = NearestScore((2.0, 0.5))
        assert fn.peak(Rect.unit(2)) == (1.0, 0.5)

    def test_unimodal_not_monotone(self):
        fn = NearestScore((0.5,))
        assert fn.score((0.5,)) > fn.score((0.0,))
        assert fn.score((0.5,)) > fn.score((1.0,))


# -- batched f+ ---------------------------------------------------------------

#: Weights and coordinates away from the denormal range, where a product
#: could underflow differently in two summation orders.
MAGNITUDES = st.floats(1e-6, 1e3, allow_nan=False)
WEIGHTS = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda w: -w))
COORDS = st.floats(-4.0, 4.0, allow_nan=False, width=64)


@st.composite
def stacked_boxes(draw, dims, max_boxes=16):
    """``(S, d)`` ``lo`` / ``hi`` for ``S`` in ``[0, 16]``; any side of
    any box may have zero extent."""
    count = draw(st.integers(0, max_boxes))
    lo = np.empty((count, dims))
    hi = np.empty((count, dims))
    for i in range(count):
        for j in range(dims):
            a, b = draw(COORDS), draw(st.one_of(st.none(), COORDS))
            lo[i, j], hi[i, j] = (a, a) if b is None else sorted((a, b))
    return lo, hi


def scalar_bounds(fn, lo, hi):
    return [fn.upper_bound(Rect(tuple(l), tuple(h)))
            for l, h in zip(lo.tolist(), hi.tolist())]


class TestBatchedUpperBound:
    """``upper_bound_batch`` rows equal ``upper_bound`` with ``==``: the
    visit's array step and the per-link step must prune and order alike."""

    @given(st.data(), st.sampled_from([1, 2, 3, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_linear_equals_scalar_bit_for_bit(self, data, dims):
        fn = LinearScore(data.draw(st.lists(WEIGHTS, min_size=dims,
                                            max_size=dims)))
        lo, hi = data.draw(stacked_boxes(dims))
        got = fn.upper_bound_batch(lo, hi)
        assert got.shape == (len(lo),)
        assert got.tolist() == scalar_bounds(fn, lo, hi)

    @given(st.data(), st.sampled_from([1, 2, 3, 4, 8]),
           st.sampled_from([1, 2, math.inf]))
    @settings(max_examples=200, deadline=None)
    def test_nearest_equals_scalar_bit_for_bit(self, data, dims, p):
        fn = NearestScore(data.draw(st.lists(COORDS, min_size=dims,
                                             max_size=dims)), p=p)
        lo, hi = data.draw(stacked_boxes(dims))
        got = fn.upper_bound_batch(lo, hi)
        assert got.shape == (len(lo),)
        assert got.tolist() == scalar_bounds(fn, lo, hi)

    @pytest.mark.parametrize("p, vectorised", [
        (1, True), (math.inf, True),
        # The scalar L2 squares through libm pow and a general root is
        # not correctly rounded either: both differ from NumPy's by an
        # ulp now and then, so they loop over the scalar bound.
        (2, False), (3, False)])
    def test_only_exact_metrics_leave_the_scalar_loop(self, monkeypatch,
                                                      p, vectorised):
        fn = NearestScore((0.3, 0.9, 0.1), p=p)
        rng = np.random.default_rng(5)
        lo = rng.random((9, 3))
        hi = lo + rng.random((9, 3))
        expected = scalar_bounds(fn, lo, hi)
        calls = []
        scalar = NearestScore.upper_bound
        monkeypatch.setattr(
            NearestScore, "upper_bound",
            lambda self, rect: calls.append(rect) or scalar(self, rect))
        assert fn.upper_bound_batch(lo, hi).tolist() == expected
        assert len(calls) == (0 if vectorised else 9)

    @given(st.data(), st.sampled_from([1, 4, 9]))
    @settings(max_examples=200, deadline=None)
    def test_score_rows_equals_score_bit_for_bit(self, data, dims):
        fn = LinearScore(data.draw(st.lists(WEIGHTS, min_size=dims,
                                            max_size=dims)))
        points = data.draw(st.lists(st.tuples(*[COORDS] * dims), max_size=8))
        got = fn.score_rows(points)
        assert got == [fn.score(t) for t in points]
        assert all(type(score) is float for score in got)

    def test_a_scalar_only_function_gets_the_default_loop(self):
        class Product(ScoringFunction):
            dims = 2

            def score(self, point):
                return point[0] * point[1]

            def score_batch(self, array):
                return array[:, 0] * array[:, 1]

            def upper_bound(self, rect):
                return rect.hi[0] * rect.hi[1]

            def peak(self, rect):
                return rect.hi

        lo = np.array([[0.1, 0.2], [0.3, 0.3]])
        hi = np.array([[0.5, 0.4], [0.3, 0.9]])
        got = Product().upper_bound_batch(lo, hi)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [0.5 * 0.4, 0.3 * 0.9]
        assert Product().upper_bound_batch(lo[:0], hi[:0]).shape == (0,)


class TestParameterValidation:
    @pytest.mark.parametrize("build, names", [
        (lambda: LinearScore([math.nan, 1.0]), "weights"),
        (lambda: LinearScore([math.inf, 1.0]), "weights"),
        (lambda: LinearScore([]), "weights"),
        (lambda: NearestScore([math.nan, 0.5]), "query"),
        (lambda: NearestScore([]), "query"),
        (lambda: NearestScore([0.5, 0.5], p=0), "p"),
        (lambda: NearestScore([0.5, 0.5], p=-2), "p"),
        (lambda: NearestScore([0.5, 0.5], p=math.nan), "p"),
    ])
    def test_bad_parameters_fail_at_construction(self, build, names):
        with pytest.raises(ValueError, match=names):
            build()

    def test_dims(self):
        assert LinearScore([1, 2, 3]).dims == 3
        assert NearestScore((0.5,), p=math.inf).dims == 1
