"""Substrate invariants of the structure-of-arrays overlay arena.

The mirror must be an *exact* snapshot (same peer ids, link order,
bit-equal regions and store rows), the direct-build ``MidasArena`` must
be a genuine MIDAS network (zones partition the domain, stores match
zones, implicit links decode to sibling-subtree partitions), and the
flyweight peer views must honor the read-only contract (frozen stores,
shared liveness flags).  docs/SCALE.md documents the layout these tests
pin down.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro import (CanOverlay, ChordOverlay, LinearScore, MidasOverlay,
                   TopKHandler, distributed_topk, run_ripple)
from repro.common.geometry import Rect, contains_batch
from repro.common.store import LocalStore
from repro.core.framework import Link, LinkTable
from repro.core.regions import RectRegion
from repro.net.routing import greedy_route
from repro.overlays import (ArenaPeer, MidasArena, ReplicaDirectory,
                            from_overlay, midas_arena, wavefront_execute)
from repro.overlays.arena_build import _assign_leaves


def midas_network(seed, peers=36, tuples=260):
    rng = np.random.default_rng(seed)
    data = rng.random((tuples, 2)) * 0.999
    overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
    overlay.load(data)
    overlay.grow_to(peers)
    return overlay


class TestMirrorSnapshot:
    def test_structural_equality_midas(self):
        overlay = midas_network(3)
        arena = from_overlay(overlay)
        assert len(arena) == len(overlay)
        for obj, mirrored in zip(overlay.peers(), arena.peers()):
            assert mirrored.peer_id == obj.peer_id
            assert np.array_equal(mirrored.store.array, obj.store.array)
            obj_links = obj.links()
            arena_links = mirrored.links()
            assert len(arena_links) == len(obj_links)
            for a, b in zip(obj_links, arena_links):
                assert b.peer.peer_id == a.peer.peer_id
                assert b.region == a.region

    @pytest.mark.parametrize("kind", ("chord", "can"))
    def test_structural_equality_other_families(self, kind):
        if kind == "chord":
            overlay = ChordOverlay(size=24, seed=5)
            overlay.load(np.random.default_rng(5).random((200, 1)) * 0.999)
        else:
            rng = np.random.default_rng(5)
            overlay = CanOverlay(2, size=1, seed=5)
            overlay.load(rng.random((200, 2)) * 0.999)
            overlay.grow_to(25)
        arena = from_overlay(overlay)
        assert (arena.kind != "frustum") == (kind == "chord")
        for obj, mirrored in zip(overlay.peers(), arena.peers()):
            assert np.array_equal(mirrored.store.array, obj.store.array)
            for a, b in zip(obj.links(), mirrored.links()):
                assert b.peer.peer_id == a.peer.peer_id
                assert b.region == a.region

    def test_mixed_region_families_rejected(self):
        overlay = midas_network(2)
        hybrid = from_overlay(overlay)
        with pytest.raises(ValueError):
            type(hybrid)(kind="spiral", dims=2,
                         peer_ids=hybrid.peer_ids,
                         store_ptr=hybrid.store_ptr, tuples=hybrid.tuples,
                         link_ptr=hybrid.link_ptr,
                         link_target=hybrid.link_target,
                         link_payload=hybrid.link_payload)


@pytest.mark.parametrize("build", (
    lambda: from_overlay(midas_network(9)),
    lambda: midas_arena(37, dims=2)), ids=("mirror", "midas"))
def test_replica_directory_rejects_arenas(build):
    """Arenas are read-only query snapshots that place no replicas: the
    directory refuses one by type before it touches a peer."""
    arena = build()
    with pytest.raises(TypeError, match=type(arena).__name__):
        ReplicaDirectory(arena, copies=1)
    assert not arena._views


class TestMidasArena:
    @pytest.mark.parametrize("n", (1, 2, 7, 16, 37))
    def test_zones_partition_domain(self, n):
        arena = midas_arena(n, dims=2, seed=4)
        total = 0.0
        for i in range(n):
            zone = arena.zone(i)
            total += zone.volume()
        assert total == pytest.approx(1.0)
        rng = np.random.default_rng(11)
        for point in rng.random((40, 2)):
            point = tuple(point)
            owners = [i for i in range(n)
                      if arena.zone(i).contains(point)]
            assert owners == [arena.locate_index(point)]

    def test_depths_and_paths_roundtrip(self):
        arena = midas_arena(37, dims=2, seed=4)
        depths = {arena.depth_of(i) for i in range(len(arena))}
        assert depths <= {arena.base_depth, arena.base_depth + 1}
        for i in range(len(arena)):
            value, length = arena.path_of(i), arena.depth_of(i)
            assert arena._is_leaf(value, length)
            assert arena._leaf_index(value, length) == i

    def test_stores_match_zones(self):
        rng = np.random.default_rng(6)
        data = rng.random((400, 2)) * 0.999
        arena = midas_arena(29, dims=2, seed=6, data=data)
        assert arena.total_tuples() == len(data)
        for i in range(len(arena)):
            rows = arena.store_rows(i)
            if not len(rows):
                continue
            zone = arena.zone(i)
            assert contains_batch(rows, np.asarray(zone.lo),
                                  np.asarray(zone.hi)).all()

    def test_links_partition_zone_complement(self):
        arena = midas_arena(21, dims=2, seed=3)
        for i in range(len(arena)):
            links = arena.decode_links(i)
            assert len(links) == arena.depth_of(i)
            covered = arena.zone(i).volume() + sum(
                link.region.rect.volume() for link in links)
            assert covered == pytest.approx(1.0)
            for link in links:
                assert link.peer.index != i
                assert link.region.rect.contains(
                    arena.zone(link.peer.index).center)

    def test_precomputed_links_equal_on_demand(self):
        for n, dims, seed in itertools.product(
                (2, 3, 5, 53, 64, 65, 127, 300), (1, 2, 4), (8, -3)):
            lazy = midas_arena(n, dims=dims, seed=seed)
            eager = midas_arena(n, dims=dims, seed=seed,
                                precompute_links=True)
            assert lazy.link_target is None
            assert eager.link_target is not None
            for i in range(n):
                # The lazy arena runs the scalar ``_descend`` per link.
                assert eager.link_target[
                    eager.link_ptr[i]:eager.link_ptr[i + 1]].tolist() \
                    == lazy._link_targets(i)
                assert [l.peer.index for l in eager.decode_links(i)] \
                    == [l.peer.index for l in lazy.decode_links(i)]

    @pytest.mark.parametrize("depth,m", [(d, m) for d in (1, 3, 5)
                                         for m in sorted({0, 1, 2 ** d - 1})])
    @pytest.mark.parametrize("dims", (1, 2, 3, 4))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_leaf_assignment_equals_scalar_descent(self, depth, m, dims,
                                                   seed):
        n = 2 ** depth + m
        arena = midas_arena(n, dims=dims)
        rng = np.random.default_rng(seed)
        # Multiples of a finer dyadic step than any split: every cell
        # midpoint and face of the tree, plus 0, the domain's upper face,
        # and points below, above and infinitely far outside it.
        step = 2.0 ** -(n.bit_length() + 1)
        grid = rng.integers(0, 2 ** (n.bit_length() + 1), (60, dims)) * step
        edges = np.array([0.0, -0.0, 1 - 1e-9, 1.0, 5e-324, -1e-300, -0.5,
                          1.5, np.inf, -np.inf])
        rows = np.concatenate([rng.random((60, dims)), grid,
                               rng.choice(edges, (60, dims))])
        leaf = _assign_leaves(rows, dims, arena.base_depth, arena.extra)
        assert leaf.tolist() == [arena.locate_index(row) for row in rows]

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(ValueError, match="expected finite coordinates"):
            midas_arena(8, dims=2, data=[[0.2, 0.3], [bad, 0.5]])

    def test_precomputed_build_memory_is_linear(self):
        """Resolving every link keeps O(n) temporaries: the build peaks
        near the link arrays it returns, not at a multiple of them."""
        tracemalloc.start()
        try:
            arena = midas_arena(2 ** 15, dims=2, seed=1,
                                precompute_links=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        links = arena.link_ptr.nbytes + arena.link_target.nbytes
        assert peak < 2.5 * links

    def test_extra_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MidasArena(dims=2, store_ptr=np.zeros(7, dtype=np.int64),
                       tuples=np.empty((0, 2)), base_depth=1, extra=4)


def lazy_arenas():
    """``(label, arena)``: box-table arenas of every build path."""
    rng = np.random.default_rng(21)
    for dims in (1, 2, 3):
        for n in (1, 16, 37):
            for precompute in (False, True):
                yield (f"midas_arena n={n} d={dims} precompute={precompute}",
                       midas_arena(n, dims=dims, seed=5,
                                   data=rng.random((90, dims)) * 0.999,
                                   precompute_links=precompute))
    yield "from_overlay(midas)", from_overlay(midas_network(3))


class TestLazyLinkTables:
    """``ArenaPeer.links()`` builds box tables from arrays and a ``Link``
    only on access; ``decode_links`` stays the object-form reference."""

    @pytest.mark.parametrize("label, arena", list(lazy_arenas()),
                             ids=[label for label, _ in lazy_arenas()])
    def test_lazy_tables_equal_decoded_links(self, label, arena):
        for index in range(len(arena)):
            table = arena.peer(index).links()
            decoded = arena.decode_links(index)
            assert isinstance(table, LinkTable)
            assert len(table) == len(decoded)
            lo, hi = table.bounds()
            assert lo.shape == hi.shape == (len(decoded), arena.dims)
            assert table.peer_ids == [l.peer.peer_id for l in decoded]
            assert all(type(i) is int for i in table.peer_ids)
            # Nothing above built a link; indexing builds exactly one.
            assert table._links == [None] * len(decoded)
            for i, reference in enumerate(decoded):
                link = table[i]
                assert link.peer is reference.peer
                assert link.region == reference.region
                assert link.region.rect.lo == tuple(lo[i])
                assert link.region.rect.hi == tuple(hi[i])
                assert all(type(v) is float for v in
                           link.region.rect.lo + link.region.rect.hi)
                assert table[i] is link

    def test_tables_behave_as_sequences(self):
        arena = midas_arena(37, dims=2, seed=5)
        table = arena.peer(9).links()
        decoded = arena.decode_links(9)
        assert arena.peer(9).links() is table
        assert table[-1] == decoded[-1] and table[-1] is table[len(table) - 1]
        assert table._links.count(None) == len(decoded) - 1
        assert table[1:3] == decoded[1:3]
        assert table[::-1] == decoded[::-1]
        assert list(table) == decoded
        assert list(reversed(table)) == decoded[::-1]
        assert decoded[2] in table and table.index(decoded[2]) == 2
        assert [a is b for a, b in zip(table, table)] == [True] * len(table)
        with pytest.raises(IndexError):
            table[len(decoded)]
        assert len(midas_arena(1, dims=2).peer(0).links()) == 0
        assert list(midas_arena(1, dims=2).peer(0).links()) == []

    def test_arc_and_frustum_mirrors_keep_decoded_tables(self):
        chord = ChordOverlay(size=12, seed=5)
        can = CanOverlay(2, size=9, seed=5)
        for overlay in (chord, can):
            arena = from_overlay(overlay)
            table = arena.peer(3).links()
            assert list(table) == arena.decode_links(3)
            # Bounded like box tables: the decoded regions' cover boxes.
            covers = [rect for link in table for rect in link.region.cover()]
            lo, hi = table.bounds()
            assert lo.tolist() == [list(rect.lo) for rect in covers]
            assert hi.tolist() == [list(rect.hi) for rect in covers]

    @pytest.mark.parametrize("seeded", [False, True])
    def test_a_wavefront_topk_builds_only_the_links_it_crosses(
            self, monkeypatch, seeded):
        """A forward hands on the link's target and region, and builds no
        ``Link``; the only regions built are those of the links crossed.
        Routing on a ``MidasArena`` reads path bits and builds none."""
        rng = np.random.default_rng(8)
        arena = midas_arena(512, dims=3, seed=8,
                            data=rng.random((4000, 3)) * 0.999,
                            precompute_links=True)
        built, regions = [], []
        for cls, log in ((Link, built), (RectRegion, regions)):
            monkeypatch.setattr(cls, "__init__", lambda self, *args,
                                init=cls.__init__, log=log, **kwargs:
                                log.append(1) or init(self, *args, **kwargs))
        fn = LinearScore((0.9, 1.1, 0.7))
        initiator = arena.peer(300)
        if seeded:
            result = distributed_topk(initiator, fn, 5, r=0,
                                      restriction=arena.domain(),
                                      executor=wavefront_execute)
            assert len(greedy_route(initiator, (1 - 1e-12,) * 3)[1]) > 2
        else:
            result = run_ripple(initiator, TopKHandler(fn, 5), 0,
                                restriction=arena.domain(),
                                executor=wavefront_execute)
        assert result.stats.processed > 5
        assert not built
        # One more region: the domain the query is restricted to.
        assert 0 < len(regions) <= result.stats.forward_messages + 1
        assert len(regions) < sum(len(arena.peer(i).links())
                                  for i in arena._views) / 2


class TestPeerViews:
    def test_views_are_cached_flyweights(self):
        arena = midas_arena(9, dims=2, seed=1)
        assert arena.peer(3) is arena.peer(3)
        assert arena.peers()[3] is arena.peer(3)

    def test_sequence_protocol(self):
        arena = midas_arena(9, dims=2, seed=1)
        peers = arena.peers()
        assert len(peers) == 9
        assert isinstance(peers[0], ArenaPeer)
        assert peers[-1].index == 8
        assert [p.index for p in peers[2:5]] == [2, 3, 4]
        assert [p.index for p in peers] == list(range(9))
        with pytest.raises(IndexError):
            peers[9]

    def test_frozen_store_mutators_raise(self):
        rng = np.random.default_rng(0)
        arena = midas_arena(9, dims=2, seed=1,
                            data=rng.random((50, 2)) * 0.999)
        store = arena.peer(0).store
        with pytest.raises(TypeError):
            store.insert((0.1, 0.1))
        with pytest.raises(TypeError):
            store.bulk_load(np.zeros((1, 2)))
        with pytest.raises(TypeError):
            store.extract(Rect.unit(2))
        with pytest.raises(TypeError):
            store.take_all()
        with pytest.raises(ValueError):
            store.array[...] = 0.0

    def test_substrate_rows_not_writeable(self):
        arena = midas_arena(5, dims=2, seed=1,
                            data=np.full((5, 2), 0.25))
        with pytest.raises(ValueError):
            arena.tuples[0, 0] = 0.5

    def test_epoch_and_random_peer(self):
        arena = midas_arena(9, dims=2, seed=1)
        assert arena.epoch == 0
        rng = np.random.default_rng(3)
        assert arena.random_peer(rng).index in range(9)

    def test_nbytes_counts_substrate(self):
        small = midas_arena(8, dims=2, seed=1)
        big = midas_arena(4096, dims=2, seed=1)
        assert 0 < small.nbytes() < big.nbytes()


class TestViewStores:
    def test_view_of_shares_memory(self):
        base = np.random.default_rng(1).random((12, 3))
        view = LocalStore.view_of(base[4:9])
        assert len(view) == 5
        assert view.dims == 3
        assert np.shares_memory(view.array, base)

    def test_view_of_never_freezes_caller(self):
        base = np.random.default_rng(1).random((6, 2))
        LocalStore.view_of(base)
        base[0, 0] = 0.5  # the caller's array stays writeable

    def test_view_of_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LocalStore.view_of(np.zeros(4))
        with pytest.raises(ValueError):
            LocalStore.view_of(np.zeros((4, 0)))

    def test_prime_seeds_cache_without_counter_noise(self):
        store = LocalStore(2, [(0.2, 0.4), (0.6, 0.1)])
        store.prime("key", "primed")
        assert store.cached("key", lambda: "computed") == "primed"
        assert store.cache_hits == 1
        store.prime("key", "other")  # existing keys are not replaced
        assert store.cached("key", lambda: "computed") == "primed"

    def test_prime_respects_cache_switch(self, monkeypatch):
        store = LocalStore(2, [(0.2, 0.4)])
        monkeypatch.setattr(LocalStore, "cache_enabled", False)
        store.prime("key", "primed")
        assert store.cached("key", lambda: "computed") == "computed"
        assert store.cache_hits == store.cache_misses == 0
