"""Integration tests for the skyline competitors (DSL, SSP) and the
flood under the diversification baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dsl import dsl_skyline
from repro.baselines.div_baseline import flood
from repro.baselines.ssp import ssp_skyline
from repro.overlays.baton import BatonOverlay
from repro.overlays.can import CanOverlay
from repro.overlays.midas import MidasOverlay
from repro.overlays.zcurve import ZCurve
from repro.queries.skyline import skyline_reference


def can_network(data, size, seed=0):
    overlay = CanOverlay(data.shape[1], size=1, seed=seed, join_policy="data")
    overlay.load(data)
    overlay.grow_to(size)
    return overlay


class TestDSL:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(11)
        data = rng.random((1500, 3)) * 0.999
        return can_network(data, 96, seed=1), data

    def test_correct_skyline(self, setup):
        overlay, data = setup
        result = dsl_skyline(overlay, overlay.random_peer())
        assert result.answer == skyline_reference(data)

    def test_every_initiator_agrees(self, setup):
        overlay, data = setup
        reference = skyline_reference(data)
        for peer in list(overlay.peers())[::17]:
            assert dsl_skyline(overlay, peer).answer == reference

    def test_prunes_some_peers(self, setup):
        overlay, _ = setup
        result = dsl_skyline(overlay, overlay.random_peer())
        assert result.stats.processed < len(overlay)

    def test_latency_at_least_route(self, setup):
        overlay, _ = setup
        result = dsl_skyline(overlay, overlay.random_peer())
        assert result.stats.latency >= 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=6, deadline=None)
    def test_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((200, 2)) * 0.999
        overlay = can_network(data, 24, seed=seed)
        result = dsl_skyline(overlay, overlay.random_peer(rng))
        assert result.answer == skyline_reference(data)


class TestSSP:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(13)
        data = rng.random((1500, 3)) * 0.999
        return BatonOverlay(96, data, zcurve=ZCurve(3, 8), seed=1), data

    def test_correct_skyline(self, setup):
        overlay, data = setup
        result = ssp_skyline(overlay, overlay.random_peer())
        assert result.answer == skyline_reference(data)

    def test_every_initiator_agrees(self, setup):
        overlay, data = setup
        reference = skyline_reference(data)
        for peer in list(overlay.peers())[::17]:
            assert ssp_skyline(overlay, peer).answer == reference

    def test_prunes_some_peers(self, setup):
        overlay, _ = setup
        result = ssp_skyline(overlay, overlay.random_peer())
        assert result.stats.processed < len(overlay)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=6, deadline=None)
    def test_random_networks(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((200, 2)) * 0.999
        overlay = BatonOverlay(17, data, zcurve=ZCurve(2, 8), seed=seed)
        result = ssp_skyline(overlay, overlay.random_peer(rng))
        assert result.answer == skyline_reference(data)


class TestNaiveBroadcast:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(17)
        data = rng.random((800, 3)) * 0.999
        overlay = MidasOverlay(3, size=1, seed=2, join_policy="data")
        overlay.load(data)
        overlay.grow_to(48)
        return overlay, data

    def test_flood_reaches_everyone(self, setup):
        overlay, _ = setup
        reached, messages = flood(overlay.random_peer())
        assert len(reached) == len(overlay)
        assert messages >= len(overlay) - 1
