"""Unit tests for generic greedy routing and seeded drivers."""

import numpy as np
import pytest

from repro import LinearScore, MidasOverlay
from repro.overlays import from_overlay, midas_arena
from repro.net.routing import RoutingError, greedy_route, route_around
from repro.queries.drivers import run_seeded
from repro.queries.topk import TopKHandler, topk_reference
from tests.netlib import DIMS, build_network


@pytest.fixture(scope="module")
def network():
    rng = np.random.default_rng(41)
    data = rng.random((600, 2)) * 0.999
    overlay = MidasOverlay(2, size=1, seed=9, join_policy="data")
    overlay.load(data)
    overlay.grow_to(64)
    return overlay, data


class TestGreedyRoute:
    def test_reaches_owner(self, network):
        overlay, _ = network
        rng = np.random.default_rng(0)
        for _ in range(25):
            point = tuple(rng.random(2))
            owner, path = greedy_route(overlay.random_peer(rng), point)
            assert owner.zone.contains(point)

    def test_self_route_is_empty(self, network):
        overlay, _ = network
        peer = overlay.peers()[0]
        owner, path = greedy_route(peer, peer.zone.center)
        assert owner is peer
        assert path == [peer]

    def test_hops_bounded_by_depth(self, network):
        overlay, _ = network
        rng = np.random.default_rng(1)
        for _ in range(25):
            _, path = greedy_route(overlay.random_peer(rng),
                                   tuple(rng.random(2)))
            assert len(path) - 1 <= overlay.tree.max_depth()

    def test_loop_detection(self):
        """A broken overlay whose regions point back raises RoutingError."""
        class FakePeer:
            def __init__(self, pid):
                self.peer_id = pid
                self.link = None

            def links(self):
                return [self.link]

        from repro.core.framework import Link
        from repro.core.regions import RectRegion
        from repro.common.geometry import Rect

        a, b = FakePeer("a"), FakePeer("b")
        everywhere = RectRegion(Rect.unit(2))
        a.link = Link(peer=b, region=everywhere)
        b.link = Link(peer=a, region=everywhere)
        with pytest.raises(RoutingError, match="loop"):
            greedy_route(a, (0.5, 0.5))

    def test_no_convergence_raises(self):
        """An endless chain of fresh peers trips the hop budget, not a
        loop: every hop visits a brand-new peer so ``seen`` never fires."""
        from repro.core.framework import Link
        from repro.core.regions import RectRegion
        from repro.common.geometry import Rect

        everywhere = RectRegion(Rect.unit(2))

        class ChainPeer:
            counter = 0

            def __init__(self):
                ChainPeer.counter += 1
                self.peer_id = ChainPeer.counter

            def links(self):
                return [Link(peer=ChainPeer(), region=everywhere)]

        with pytest.raises(RoutingError, match="no convergence"):
            greedy_route(ChainPeer(), (0.5, 0.5), max_hops=50)

    def test_max_hops_generous_enough_for_real_overlays(self, network):
        """The default budget never truncates a legitimate MIDAS route."""
        overlay, _ = network
        rng = np.random.default_rng(3)
        for _ in range(10):
            owner, _ = greedy_route(overlay.random_peer(rng),
                                    tuple(rng.random(2)),
                                    max_hops=len(overlay.peers()))
            assert owner.zone.contains  # reached without RoutingError


def loop_route(start, point):
    """Greedy routing as the per-link loop: forward over the first link
    whose region contains ``point``."""
    peer, path = start, [start]
    while True:
        nxt = next((link.peer for link in peer.links()
                    if link.region.contains(point)), None)
        if nxt is None:
            return peer, path
        if nxt in path:
            raise RoutingError(f"routing loop at {nxt.peer_id!r}")
        path.append(nxt)
        peer = nxt


def face_points(network, dims):
    """Points on the faces ``Rect.contains`` treats differently: cover
    box corners (lower faces in, upper faces out), ``-0.0``, just below
    the domain's upper face, on it and outside it."""
    coords = set()
    for peer in list(network.peers())[:6]:
        for rect in (r for link in peer.links() for r in link.region.cover()):
            coords.update(rect.lo + rect.hi)
    coords = sorted(coords) + [-0.0, 1 - 1e-12, 1.0, -0.25, 1.5]
    rng = np.random.default_rng(dims)
    points = [tuple(rng.choice(coords, dims).tolist()) for _ in range(40)]
    return points + [tuple(row) for row in rng.random((10, dims)).tolist()] + [
        (-0.0,) * dims, (1 - 1e-12,) * dims, (1.0,) * dims,
        (0.5,) * (dims - 1) + (-0.0,)]


class TestRoutingEqualsTheLoop:
    @pytest.mark.parametrize("kind", ["arena", "midas", "mirror", "chord",
                                      "can", "skipgraph"])
    def test_same_owner_and_path(self, kind):
        """``LinkTable.locate`` picks the link the per-link loop picks,
        on every region family, for points on lower and upper faces, at
        ``-0.0``, at ``1 - 1e-12`` and outside the domain — and so does
        ``MidasArena.route_hop``, which reads path bits: ``greedy_route``
        takes the loop's path either way."""
        if kind == "arena":
            network, dims = midas_arena(45, dims=2, seed=7), 2
        elif kind == "mirror":
            network, dims = from_overlay(build_network("midas", 7)), 2
        else:
            network, dims = build_network(kind, 7), DIMS[kind]
        starts = list(network.peers())[::5]
        for point in face_points(network, dims):
            for start in starts:
                table = start.links()
                assert table.locate(point) == next(
                    (i for i, link in enumerate(table)
                     if link.region.contains(point)), None)
                try:
                    want = loop_route(start, point)
                except RoutingError:
                    with pytest.raises(RoutingError):
                        greedy_route(start, point)
                    continue
                assert greedy_route(start, point) == want


class TestRouteAround:
    def test_finds_live_coordinator(self, network):
        """With everything alive, a neighbor coordinating any region is one
        hop away."""
        overlay, _ = network
        peer = overlay.peers()[0]
        target_region = peer.links()[0].region
        found, hops = route_around(peer, target_region, lambda pid: True)
        assert found is not None and found is not peer
        assert hops >= 1
        assert any(ln.region.intersect(target_region) is not None
                   for ln in found.links())

    def test_excluded_peer_is_skipped(self, network):
        overlay, _ = network
        peer = overlay.peers()[0]
        region = peer.links()[0].region
        first, _ = route_around(peer, region, lambda pid: True)
        second, _ = route_around(peer, region, lambda pid: True,
                                 exclude=(first.peer_id,))
        assert second is not None
        assert second.peer_id != first.peer_id

    def test_dead_links_are_not_traversed(self, network):
        """Killing every neighbor of the start isolates it: no coordinator
        is reachable."""
        overlay, _ = network
        peer = overlay.peers()[0]
        dead = {ln.peer.peer_id for ln in peer.links()}
        region = peer.links()[0].region
        found, hops = route_around(peer, region,
                                   lambda pid: pid not in dead)
        assert found is None and hops == 0

    def test_routes_around_a_dead_peer(self, network):
        """With one neighbor dead, the search still reaches a coordinator
        for that neighbor's region through the remaining live links."""
        overlay, _ = network
        peer = overlay.peers()[0]
        victim = peer.links()[0].peer
        region = peer.links()[0].region
        found, hops = route_around(peer, region,
                                   lambda pid: pid != victim.peer_id,
                                   exclude=(victim.peer_id,))
        assert found is not None
        assert found.peer_id != victim.peer_id
        assert any(ln.region.intersect(region) is not None
                   for ln in found.links())

    def test_max_peers_budget(self, network):
        overlay, _ = network
        peer = overlay.peers()[0]
        region = peer.links()[-1].region
        found, _ = route_around(peer, region, lambda pid: True, max_peers=1)
        assert found is None  # budget spent on the start peer itself


class TestSeededDriver:
    def test_seeded_correct_for_every_r(self, network):
        overlay, data = network
        fn = LinearScore([1, 1])
        handler = TopKHandler(fn, 5)
        reference = [s for s, _ in topk_reference(data, fn, 5)]
        for r in (0, 2, 10 ** 9):
            result = run_seeded(overlay.random_peer(), handler, r,
                                restriction=overlay.domain(),
                                seed_point=(0.999, 0.999))
            assert [s for s, _ in result.answer] == reference

    def test_seed_path_counts_in_latency(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1]), 5)
        result = run_seeded(overlay.random_peer(), handler, 0,
                            restriction=overlay.domain(),
                            seed_point=(0.999, 0.999))
        assert result.stats.latency >= 1

    def test_initial_state_threads_through(self, network):
        """An initial state that certifies everything suppresses answers."""
        import math
        from repro.queries.topk import TopKState

        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1]), 5)
        result = run_seeded(overlay.random_peer(), handler, 0,
                            restriction=overlay.domain(),
                            seed_point=(0.999, 0.999),
                            initial_state=TopKState((math.inf,) * 5,
                                                    math.inf))
        assert result.answer == []

    def test_strict_mode_by_default(self, network):
        overlay, _ = network
        handler = TopKHandler(LinearScore([1, 1]), 3)
        # would raise DuplicateVisitError if the seed bookkeeping leaked
        run_seeded(overlay.random_peer(), handler, 1,
                   restriction=overlay.domain(), seed_point=(0.5, 0.5),
                   strict=True)
