"""The flood under the diversification baseline works over any overlay
(it only needs links)."""

import numpy as np

from repro.baselines.div_baseline import FloodingDiversifier, flood
from repro.overlays.can import CanOverlay
from repro.overlays.chord import ChordOverlay
from repro.queries.diversify import DiversificationObjective


class TestFloodOverChord:
    def test_reaches_every_peer(self):
        overlay = ChordOverlay(size=40, seed=1)
        reached, _ = flood(overlay.random_peer())
        assert len(reached) == 40


class TestFloodOverCan:
    def test_reaches_every_peer(self):
        overlay = CanOverlay(2, size=30, seed=3)
        reached, messages = flood(overlay.random_peer())
        assert len(reached) == 30
        # every neighbor edge carries at least one message in each direction
        assert messages >= 29

    def test_latency_is_graph_eccentricity(self):
        overlay = CanOverlay(2, size=30, seed=4)
        start = overlay.random_peer()
        reached, _ = flood(start)
        depths = {peer.peer_id: depth for peer, depth in reached}
        # BFS depth of the farthest peer == one way of the baseline's
        # broadcast-and-convergecast round trip
        overlay.load(np.random.default_rng(1).random((50, 2)) * 0.999)
        _, stats = FloodingDiversifier(overlay, start).solve_single(
            DiversificationObjective((0.5, 0.5), 0.5), [], grow=True)
        assert stats.latency == 2 * max(depths.values())
        assert stats.processed == len(depths)
