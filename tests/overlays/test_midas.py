"""Unit and invariant tests for the MIDAS overlay."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.geometry import Rect
from repro.overlays.midas import MidasOverlay
from repro.overlays.patterns import matches_any_pattern


def zones_partition_domain(overlay):
    total = sum(peer.zone.volume() for peer in overlay.peers())
    assert total == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        point = tuple(rng.random(overlay.dims))
        owners = [p for p in overlay.peers() if p.zone.contains(point)]
        assert len(owners) == 1
        assert overlay.locate(point) is owners[0]


class TestGrowth:
    def test_initial_single_peer(self):
        overlay = MidasOverlay(2)
        assert len(overlay) == 1
        assert overlay.peers()[0].zone == Rect.unit(2)

    def test_grow_to(self):
        overlay = MidasOverlay(2, size=33, seed=1)
        assert len(overlay) == 33
        zones_partition_domain(overlay)

    def test_expected_logarithmic_depth(self):
        overlay = MidasOverlay(3, size=256, seed=2)
        # E[depth] is O(log n); allow generous slack over log2(256) = 8.
        assert overlay.tree.max_depth() <= 4 * 8

    def test_anchor_inside_zone(self):
        overlay = MidasOverlay(2, size=64, seed=3)
        for peer in overlay.peers():
            assert peer.zone.contains(peer.anchor, closed=True)


class TestDepartures:
    def test_leave_sibling_leaf(self):
        overlay = MidasOverlay(2, size=2, seed=0)
        overlay.leave(overlay.peers()[1])
        assert len(overlay) == 1
        assert overlay.peers()[0].zone == Rect.unit(2)

    def test_cannot_remove_last(self):
        overlay = MidasOverlay(2)
        with pytest.raises(ValueError):
            overlay.leave()

    def test_shrink_preserves_partition(self):
        overlay = MidasOverlay(2, size=64, seed=4)
        overlay.shrink_to(17)
        assert len(overlay) == 17
        zones_partition_domain(overlay)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=10, deadline=None)
    def test_churn_preserves_partition_and_data(self, seed):
        rng = np.random.default_rng(seed)
        overlay = MidasOverlay(2, size=16, seed=seed)
        data = rng.random((200, 2)) * 0.999
        overlay.load(data)
        for _ in range(30):
            if len(overlay) > 1 and rng.random() < 0.5:
                overlay.leave()
            else:
                overlay.join()
        zones_partition_domain(overlay)
        assert overlay.total_tuples() == 200
        # every tuple sits at the peer owning its key
        for peer in overlay.peers():
            for point in peer.store.iter_points():
                assert peer.zone.contains(point)


class TestLinks:
    def test_link_count_equals_depth(self):
        overlay = MidasOverlay(2, size=32, seed=5)
        for peer in overlay.peers():
            assert len(peer.links()) == peer.depth

    def test_link_regions_partition_domain(self):
        overlay = MidasOverlay(3, size=48, seed=6)
        for peer in overlay.peers():
            volume = peer.zone.volume()
            volume += sum(link.region.rect.volume() for link in peer.links())
            assert volume == pytest.approx(1.0)

    def test_link_targets_inside_their_region(self):
        overlay = MidasOverlay(2, size=48, seed=7)
        for peer in overlay.peers():
            for link in peer.links():
                assert link.region.rect.contains_rect(link.peer.zone)

    def test_links_cached_until_churn(self):
        """Same table while no link changed; always equal to a rebuild
        (the full contract: ``test_midas_link_refresh.py``)."""
        overlay = MidasOverlay(2, size=16, seed=8)
        tables = {peer: peer.links() for peer in overlay.peers()}
        assert all(peer.links() is table for peer, table in tables.items())
        joiner = overlay.join()
        host = joiner.leaf.parent.child(1 - joiner.path[-1]).payload
        for peer, table in tables.items():
            rebuilt = peer._build_links()
            assert [(link.peer, link.region) for link in peer.links()] == \
                [(link.peer, link.region) for link in rebuilt]
            same = peer is not host and \
                [link.peer for link in table] == [link.peer for link in rebuilt]
            assert (peer.links() is table) == same
        assert len(host.links()) == len(tables[host]) + 1

    def test_max_links(self):
        overlay = MidasOverlay(2, size=32, seed=9)
        assert overlay.max_links() == overlay.tree.max_depth()


class TestBoundaryPolicy:
    def test_boundary_links_prefer_pattern_peers(self):
        overlay = MidasOverlay(2, size=128, seed=10, link_policy="boundary")
        preferred = 0
        total = 0
        for peer in overlay.peers():
            for link in peer.links():
                total += 1
                if matches_any_pattern(link.peer.path, overlay.dims):
                    preferred += 1
        random_overlay = MidasOverlay(2, size=128, seed=10,
                                      link_policy="random")
        random_preferred = sum(
            matches_any_pattern(link.peer.path, 2)
            for peer in random_overlay.peers() for link in peer.links())
        assert preferred > random_preferred

    def test_boundary_target_matches_when_subtree_allows(self):
        overlay = MidasOverlay(2, size=64, seed=11, link_policy="boundary")
        for peer in overlay.peers():
            for subtree, link in zip(
                    overlay.tree.sibling_subtrees(peer.leaf), peer.links()):
                if matches_any_pattern(subtree.path, 2):
                    assert matches_any_pattern(link.peer.path, 2)


class TestData:
    def test_load_places_tuples_at_owners(self):
        overlay = MidasOverlay(2, size=16, seed=12)
        data = np.random.default_rng(0).random((100, 2)) * 0.999
        overlay.load(data)
        assert overlay.total_tuples() == 100
        for peer in overlay.peers():
            for point in peer.store.iter_points():
                assert peer.zone.contains(point)

    def test_data_join_policy_balances_load(self):
        rng = np.random.default_rng(1)
        # data concentrated in one corner
        data = rng.random((2000, 2)) * 0.1
        uniform = MidasOverlay(2, size=1, seed=13, join_policy="uniform")
        uniform.load(data)
        uniform.grow_to(64)
        adaptive = MidasOverlay(2, size=1, seed=13, join_policy="data")
        adaptive.load(data)
        adaptive.grow_to(64)
        assert max(len(p.store) for p in adaptive.peers()) < \
            max(len(p.store) for p in uniform.peers())

    def test_median_split_rule(self):
        overlay = MidasOverlay(1, size=1, seed=14, join_policy="data",
                               split_rule="median")
        overlay.load(np.array([[0.1], [0.2], [0.3], [0.9]]))
        overlay.grow_to(2)
        sizes = sorted(len(p.store) for p in overlay.peers())
        assert sizes == [2, 2]


class TestComplete:
    def test_complete_tree(self):
        overlay = MidasOverlay.complete(2, 4, seed=0)
        assert len(overlay) == 16
        assert overlay.tree.max_depth() == 4
        assert all(peer.depth == 4 for peer in overlay.peers())
