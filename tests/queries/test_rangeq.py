"""Tests for range queries — the stateless degenerate case of RIPPLE."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import MidasOverlay, run_fast, run_ripple, run_slow
from repro.common.geometry import Rect
from repro.queries.rangeq import RangeHandler, range_reference


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(55)
    data = rng.random((1000, 2)) * 0.999
    overlay = MidasOverlay(2, size=1, seed=12, join_policy="data")
    overlay.load(data)
    overlay.grow_to(64)
    return overlay, data


class TestRangeQueries:
    def test_fast_and_slow_match_reference(self, network):
        overlay, data = network
        box = Rect((0.2, 0.3), (0.6, 0.9))
        handler = RangeHandler(box)
        reference = range_reference(data, box)
        for run in (run_fast, run_slow):
            result = run(overlay.random_peer(), handler,
                         restriction=overlay.domain())
            assert result.answer == reference

    def test_only_overlapping_peers_processed(self, network):
        overlay, _ = network
        box = Rect((0.4, 0.4), (0.45, 0.45))
        result = run_fast(overlay.random_peer(), RangeHandler(box),
                          restriction=overlay.domain())
        # tiny box: far fewer peers than the network (plus the initiator)
        assert result.stats.processed < len(overlay) / 2

    def test_empty_range(self, network):
        overlay, data = network
        box = Rect((0.998, 0.998), (0.999, 0.999))
        result = run_fast(overlay.random_peer(), RangeHandler(box),
                          restriction=overlay.domain())
        assert result.answer == range_reference(data, box)

    def test_full_domain_range_returns_everything(self, network):
        overlay, data = network
        box = Rect.unit(2)
        result = run_slow(overlay.random_peer(), RangeHandler(box),
                          restriction=overlay.domain())
        assert len(result.answer) == len(data)

    def test_non_finite_box_is_rejected(self):
        with pytest.raises(ValueError, match="box needs finite"):
            RangeHandler(Rect((0.0, float("nan")), (0.2, 0.9)))
        with pytest.raises(ValueError, match="box needs finite"):
            RangeHandler(Rect((0.0, 0.0), (0.2, float("inf"))))

    def test_empty_box_is_rejected(self):
        # Half-open, a box with lo == hi in some dimension selects nothing.
        with pytest.raises(ValueError, match="is empty"):
            RangeHandler(Rect((0.0, 0.3), (0.2, 0.3)))

    @given(st.floats(0, 0.7), st.floats(0, 0.7),
           st.floats(0.05, 0.3), st.floats(0.05, 0.3), st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_random_boxes(self, x, y, w, h, r):
        rng = np.random.default_rng(0)
        data = rng.random((300, 2)) * 0.999
        overlay = MidasOverlay(2, size=16, seed=1)
        overlay.load(data)
        box = Rect((x, y), (min(1.0, x + w), min(1.0, y + h)))
        result = run_ripple(overlay.random_peer(), RangeHandler(box), r,
                            restriction=overlay.domain())
        assert result.answer == range_reference(data, box)
