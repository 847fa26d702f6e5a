"""MIDAS link tables under churn: revalidated, and always a rebuild's equal.

``MidasPeer.links()`` keeps its memoised table across churn and
re-derives only the links whose end leaf changed hands
(``MidasPeer._refresh_links``).  The oracle is the first-touch path,
``LinkTable(peer._build_links())``, which reads nothing but the tree as it
stands.  The contract checked here after every churn step, for every peer
and whatever the age of its memo:

* the table equals the oracle — targets by identity, regions, order,
  ``bounds()`` and ``peer_ids`` — and the batched candidate list of a
  visit equals the per-link one;
* it is the *same object* as the memoised one exactly when the peer's leaf
  and every target are what they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LinearScore, SkylineHandler, TopKHandler
from repro.common.geometry import Rect
from repro.common.hashing import mix, path_key
from repro.core.framework import LinkTable, _candidates
from repro.core.regions import RectRegion
from repro.overlays.midas import MidasOverlay
from repro.overlays.patterns import alive_patterns
from tests.core.test_link_batch import per_link_candidates


# -- the oracle -----------------------------------------------------------

def assert_equals_rebuild(peer):
    """``peer.links()`` against a table built from scratch; returns it."""
    table, oracle = peer.links(), LinkTable(peer._build_links())
    assert len(table) == len(oracle) == peer.depth
    for got, expected in zip(table, oracle):
        assert got.peer is expected.peer
        assert got.peer.leaf.payload is got.peer      # a live peer
        assert got.region == expected.region
    for got, expected in zip(table.bounds(), oracle.bounds()):
        assert np.array_equal(got, expected)
    assert table.peer_ids == oracle.peer_ids
    dims = peer.overlay.dims
    box = RectRegion(Rect((0.0,) * dims, (0.7,) * dims))
    for handler in (TopKHandler(LinearScore([1.0] * dims), 3),
                    SkylineHandler(dims)):
        for r in (0, 2):
            batched = _candidates(table, box, handler, r)
            assert [(i, sub or table.region(i)) for i, sub, _ in batched] \
                == per_link_candidates(handler, oracle, box, r)
    return table


def check_network(overlay, touched=None):
    """Every peer's table against the oracle.  Peers outside ``touched``
    get their memo back afterwards, so tables of every age stay around."""
    for n, peer in enumerate(overlay.peers()):
        memo = peer._links, getattr(peer, "_link_ends", None)
        before = memo[0] and memo[0][1]
        table = assert_equals_rebuild(peer)
        if before is not None:
            unchanged = memo[1][0] is peer.leaf and all(
                old.peer is new.peer for old, new in zip(before, table))
            assert (table is before) == unchanged
        if touched is not None and not touched[n % len(touched)]:
            peer._links = memo[0]
            if memo[1] is not None:
                peer._link_ends = memo[1]


def touch_all(overlay):
    return [peer.links() for peer in overlay.peers()]


# -- random scripts -------------------------------------------------------

networks = st.fixed_dictionaries({
    "dims": st.integers(1, 3),
    "size": st.integers(2, 12),
    "seed": st.integers(0, 10 ** 6),
    "link_policy": st.sampled_from(["random", "boundary"]),
    "split_rule": st.sampled_from(["midpoint", "median"]),
    "join_policy": st.sampled_from(["uniform", "data"]),
})

steps = st.lists(
    st.tuples(st.sampled_from(["join", "join", "leave", "leave", "load"]),
              st.integers(0, 2 ** 30),
              st.lists(st.booleans(), min_size=1, max_size=7)),
    min_size=4, max_size=30)


class TestRandomScripts:
    @given(networks, steps)
    @settings(max_examples=60, deadline=None)
    def test_tables_of_every_age_equal_a_rebuild(self, network, script):
        network = dict(network)
        data = np.random.default_rng(network["seed"])
        dims, size = network.pop("dims"), network.pop("size")
        overlay = MidasOverlay(dims, size=1, **network)
        overlay.load(data.random((40, dims)) * 0.999)
        overlay.grow_to(size)
        check_network(overlay, touched=[True, False])
        for op, draw, touched in script:
            if op == "join":
                overlay.join()
            elif op == "load":
                overlay.load(data.random((draw % 7, overlay.dims)) * 0.999)
            elif len(overlay) > 2:
                peers = overlay.peers()
                overlay.leave(peers[draw % len(peers)])
            check_network(overlay, touched)
        check_network(overlay)


# -- the cases a script must not miss -------------------------------------

@pytest.fixture(params=["random", "boundary"])
def overlay(request):
    built = MidasOverlay(2, size=1, seed=11, link_policy=request.param,
                         join_policy="data")
    built.load(np.random.default_rng(11).random((200, 2)) * 0.999)
    built.grow_to(24)
    return built


class TestNamedCases:
    def test_a_leaf_that_splits_and_remerges_to_the_same_node(self, overlay):
        host = max(overlay.peers(), key=lambda p: sum(
            link.peer is p for q in overlay.peers() for link in q.links()))
        leaf, first = host.leaf, dict(zip(overlay.peers(), touch_all(overlay)))
        watchers = [p for p, table in first.items()
                    if any(link.peer is host for link in table)]
        assert len(watchers) >= 2
        joiner = overlay._split_host(leaf, leaf.rect.center)
        assert leaf.payload is None and host.leaf.parent is leaf
        seen_split = watchers[::2]
        for peer in seen_split:
            assert_equals_rebuild(peer)
        overlay.leave(joiner)
        assert host.leaf is leaf and leaf.payload is host
        check_network(overlay)
        # Nothing a sleeper linked to moved: the very table it had.
        for peer in set(watchers) - set(seen_split):
            assert peer.links() is first[peer]

    def test_mover_promotion(self, overlay):
        touch_all(overlay)
        leaver = next(p for p in overlay.peers()
                      if not p.leaf.parent.child(1 - p.path[-1]).is_leaf)
        leaf = leaver.leaf
        pair = overlay.tree.find_leaf_pair(
            leaf.parent.child(1 - leaf.path[-1]))
        mover, twin = pair.child(1).payload, pair.child(0).payload
        overlay.leave(leaver)
        assert mover.leaf is leaf and leaf.payload is mover
        assert twin.leaf is pair
        check_network(overlay)

    def test_a_departed_peer_that_was_a_link_target(self, overlay):
        tables = touch_all(overlay)
        victim = tables[0][-1].peer
        pointing = [p for p, table in zip(overlay.peers(), tables)
                    if any(link.peer is victim for link in table)]
        overlay.leave(victim)
        assert victim.leaf.payload is not victim
        check_network(overlay)
        for peer in pointing:
            if peer is not victim:
                assert all(link.peer is not victim for link in peer.links())

    def test_shrinking_to_two_peers(self, overlay):
        touched = [True, False, False]
        rng = np.random.default_rng(2)
        while len(overlay) > 2:
            peers = overlay.peers()
            overlay.leave(peers[int(rng.integers(len(peers)))])
            check_network(overlay, touched)
        check_network(overlay)
        assert [len(peer.links()) for peer in overlay.peers()] == [1, 1]

    def test_same_table_while_no_link_changed(self):
        overlay = MidasOverlay(2, size=64, seed=8)
        tables = touch_all(overlay)
        overlay.join()
        kept = sum(peer.links() is table
                   for peer, table in zip(overlay.peers(), tables))
        # One leaf split: its host rebuilds, a handful of peers re-aim one
        # link, everybody else keeps table and bounds arrays.
        assert len(tables) - 16 <= kept < len(tables)
        check_network(overlay)


# -- the descent ------------------------------------------------------------

def reference_end(overlay, subtree, owner):
    """The link descent as stated: one ``mix(seed, owner, path)`` a level."""
    def bit(node):
        return mix(overlay.seed, owner.peer_id, path_key(node.path)) & 1

    pattern = None
    if overlay.link_policy == "boundary":
        alive = sorted(alive_patterns(subtree.path, overlay.dims))
        if alive:
            choice = mix(overlay.seed, owner.peer_id,
                         path_key(subtree.path), 0xB0)
            pattern = alive[choice % len(alive)]
    node = subtree
    while not node.is_leaf:
        free = pattern is None or node.depth % overlay.dims == pattern
        node = node.child(bit(node) if free else 0)
    return node


class TestDescent:
    @given(st.integers(0, 10 ** 6), st.integers(1, 3),
           st.sampled_from(["random", "boundary"]))
    @settings(max_examples=30, deadline=None)
    def test_incremental_keys_walk_the_stated_descent(self, seed, dims,
                                                      policy):
        overlay = MidasOverlay(dims, size=40, seed=seed, link_policy=policy)
        for owner in overlay.peers()[::4]:
            prefix = mix(overlay.seed, owner.peer_id)
            for subtree in overlay.tree.sibling_subtrees(owner.leaf):
                assert overlay.link_end(subtree, prefix) \
                    is reference_end(overlay, subtree, owner)
