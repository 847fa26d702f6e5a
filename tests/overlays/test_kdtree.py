"""Unit tests for the shared virtual split tree."""

import numpy as np
import pytest

from repro.common.geometry import Rect
from repro.overlays.kdtree import SplitTree


def build_small():
    """Root split at x=0.5, left child split at y=0.5."""
    tree = SplitTree(2)
    left, right = tree.split_leaf(tree.root, 0, 0.5)
    ll, lh = tree.split_leaf(left, 1, 0.5)
    return tree, ll, lh, right


class TestStructure:
    def test_initial(self):
        tree = SplitTree(2)
        assert tree.leaf_count == 1
        assert tree.root.is_leaf
        assert tree.root.path == ()

    def test_split_assigns_paths(self):
        tree, ll, lh, right = build_small()
        assert tree.leaf_count == 3
        assert ll.path == (0, 0) and lh.path == (0, 1) and right.path == (1,)
        assert right.id_string() == "1"
        assert ll.id_string() == "00"

    def test_split_rects(self):
        _, ll, lh, right = build_small()
        assert right.rect == Rect((0.5, 0.0), (1.0, 1.0))
        assert ll.rect == Rect((0.0, 0.0), (0.5, 0.5))
        assert lh.rect == Rect((0.0, 0.5), (0.5, 1.0))

    def test_cannot_split_internal(self):
        tree, *_ = build_small()
        with pytest.raises(ValueError):
            tree.split_leaf(tree.root, 0, 0.25)

    def test_locate(self):
        tree, ll, lh, right = build_small()
        assert tree.locate((0.1, 0.1)) is ll
        assert tree.locate((0.1, 0.9)) is lh
        assert tree.locate((0.9, 0.5)) is right
        # boundary points go to the upper side (half-open zones)
        assert tree.locate((0.5, 0.0)) is right

    def test_iter_leaves_covers_domain(self):
        tree, *_ = build_small()
        leaves = list(tree.iter_leaves())
        assert len(leaves) == 3
        assert sum(leaf.rect.volume() for leaf in leaves) == pytest.approx(1.0)

    def test_max_depth(self):
        tree, *_ = build_small()
        assert tree.max_depth() == 2


class TestSiblings:
    def test_sibling_subtrees(self):
        tree, ll, lh, right = build_small()
        siblings = tree.sibling_subtrees(ll)
        assert [s.path for s in siblings] == [(1,), (0, 1)]
        assert siblings[0] is right and siblings[1] is lh

    def test_sibling_regions_partition_domain(self):
        tree, ll, _, _ = build_small()
        siblings = tree.sibling_subtrees(ll)
        volume = sum(s.rect.volume() for s in siblings) + ll.rect.volume()
        assert volume == pytest.approx(1.0)

    def test_root_has_no_siblings(self):
        tree = SplitTree(2)
        assert tree.sibling_subtrees(tree.root) == []


class TestMerge:
    def test_merge_children(self):
        tree, ll, lh, _ = build_small()
        parent = ll.parent
        merged = tree.merge_children(parent)
        assert merged.is_leaf
        assert tree.leaf_count == 2
        assert merged.rect == Rect((0.0, 0.0), (0.5, 1.0))

    def test_payload_only_on_live_leaves(self):
        tree, ll, lh, right = build_small()
        for leaf in (ll, lh, right):
            leaf.payload = leaf.id_string()
        parent = tree.merge_children(ll.parent)
        assert ll.payload is None and lh.payload is None
        parent.payload = "0"
        tree.split_leaf(parent, 1, 0.25)
        assert parent.payload is None
        assert right.payload == "1"

    def test_merge_requires_leaf_children(self):
        tree, *_ = build_small()
        with pytest.raises(ValueError):
            tree.merge_children(tree.root)

    def test_find_leaf_pair(self):
        tree, ll, lh, right = build_small()
        pair = tree.find_leaf_pair(ll.parent.parent)
        assert pair is ll.parent


class TestPartition:
    def test_rows_delivered_to_owning_leaf(self):
        tree, ll, lh, right = build_small()
        rows = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.6, 0.6]])
        received = {}
        tree.partition(rows, lambda leaf, r: received.setdefault(
            leaf.path, []).extend(map(tuple, r)))
        assert sorted(received[(0, 0)]) == [(0.1, 0.1)]
        assert sorted(received[(0, 1)]) == [(0.1, 0.9)]
        assert sorted(received[(1,)]) == [(0.6, 0.6), (0.9, 0.1)]

    def test_empty_array(self):
        tree, *_ = build_small()
        tree.partition(np.empty((0, 2)), lambda *_: pytest.fail("no rows"))
