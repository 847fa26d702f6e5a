"""The virtual binary split tree underlying MIDAS (and our CAN builder).

MIDAS organizes peers as the leaves of a *virtual k-d tree* (Section 2.3):
each internal node splits its rectangle along some dimension, each leaf is
a peer's zone, and a node's identifier is its root path (left = 0,
right = 1).  The tree is "virtual" in that no peer stores it whole; the
simulator, being omniscient, keeps it as a concrete structure and lets
peers look at exactly the parts the protocol grants them (their path and
their sibling subtrees).

CAN zones produced by CAN's midpoint-split join protocol form the same
structure, so :class:`SplitTree` is shared by both overlays.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..common.geometry import Rect

__all__ = ["Node", "SplitTree"]


class Node:
    """One node of the split tree.

    A node is created once and never re-parented: its ``path`` (the id of
    Section 2.3) is fixed at birth.  ``payload`` is non-``None`` exactly
    on live leaves, where it is the owning peer: a split clears the split
    leaf's, a merge clears both discarded children's, and a node a merge
    discarded never re-enters the tree.  So ``node.payload is peer`` alone
    says that ``node`` is a leaf of the tree owned by ``peer``, and — a
    merge needing two leaf children — that every node above it is still
    internal with the children it had when ``node`` was created.
    Internal nodes carry the split plane and two children.
    """

    __slots__ = ("rect", "parent", "path", "split_dim", "split_value",
                 "left", "right", "payload")

    def __init__(self, rect: Rect, parent: "Node | None",
                 bit: int | None) -> None:
        self.rect = rect
        self.parent = parent
        if parent is None or bit is None:
            self.path: tuple[int, ...] = ()
        else:
            self.path = parent.path + (bit,)
        self.split_dim: int | None = None
        self.split_value: float | None = None
        self.left: "Node | None" = None
        self.right: "Node | None" = None
        self.payload: Any = None

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def is_leaf(self) -> bool:
        return self.split_dim is None

    def child(self, bit: int) -> "Node":
        node = self.left if bit == 0 else self.right
        if node is None:
            raise ValueError("leaf has no children")
        return node

    def id_string(self) -> str:
        """The binary identifier of Figure 1 (empty for the root)."""
        return "".join(str(b) for b in self.path)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} {self.id_string() or 'root'}>"


class SplitTree:
    """A mutable binary space partition of the unit domain."""

    def __init__(self, dims: int) -> None:
        self.dims = dims
        self.root = Node(Rect.unit(dims), None, None)
        self.leaf_count = 1

    # -- queries --------------------------------------------------------

    def locate(self, point: Sequence[float]) -> Node:
        """The leaf whose (half-open) zone contains ``point``."""
        node = self.root
        while True:
            split_dim, split_value = node.split_dim, node.split_value
            if split_dim is None or split_value is None:
                return node
            node = node.child(0 if point[split_dim] < split_value else 1)

    def iter_leaves(self, node: Node | None = None) -> Iterator[Node]:
        node = node or self.root
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                yield current
            else:
                stack.append(current.child(1))
                stack.append(current.child(0))

    def max_depth(self) -> int:
        return max(leaf.depth for leaf in self.iter_leaves())

    def sibling_subtrees(self, leaf: Node) -> list[Node]:
        """Sibling subtree roots along ``leaf``'s root path, depth 1 first.

        Entry ``i-1`` is the subtree rooted at depth ``i`` whose id differs
        from the leaf's in the ``i``-th bit — the home of the peer's
        ``i``-th MIDAS link.
        """
        siblings: list[Node] = []
        node = leaf
        while node.parent is not None:
            bit = node.path[-1]
            siblings.append(node.parent.child(1 - bit))
            node = node.parent
        siblings.reverse()
        return siblings

    # -- mutation ---------------------------------------------------------

    def split_leaf(self, leaf: Node, dim: int, value: float) -> tuple[Node, Node]:
        """Split ``leaf`` into two children; returns (left, right)."""
        if not leaf.is_leaf:
            raise ValueError("can only split a leaf")
        lo_rect, hi_rect = leaf.rect.split(dim, value)
        leaf.split_dim = dim
        leaf.split_value = value
        leaf.left = Node(lo_rect, leaf, 0)
        leaf.right = Node(hi_rect, leaf, 1)
        leaf.payload = None
        self.leaf_count += 1
        return leaf.left, leaf.right

    def merge_children(self, parent: Node) -> Node:
        """Collapse an internal node whose children are both leaves.

        The discarded children lose their payload (the :class:`Node`
        invariant); the caller gives the merged leaf its owner.
        """
        if parent.is_leaf:
            raise ValueError("cannot merge a leaf")
        left, right = parent.child(0), parent.child(1)
        if not (left.is_leaf and right.is_leaf):
            raise ValueError("children must both be leaves")
        left.payload = right.payload = None
        parent.split_dim = None
        parent.split_value = None
        parent.left = None
        parent.right = None
        self.leaf_count -= 1
        return parent

    def find_leaf_pair(self, node: Node) -> Node:
        """An internal node under ``node`` whose children are both leaves.

        Such a node always exists in any non-leaf subtree (descend into an
        internal child until none is left); it is the contraction point
        used when a peer departs.
        """
        if node.is_leaf:
            raise ValueError("subtree is a single leaf")
        current = node
        while True:
            left, right = current.child(0), current.child(1)
            if left.is_leaf and right.is_leaf:
                return current
            current = right if left.is_leaf else left

    # -- bulk data distribution -----------------------------------------

    def partition(
        self,
        array: np.ndarray,
        deliver: Callable[[Node, np.ndarray], None],
        node: Node | None = None,
    ) -> None:
        """Route every row of ``array`` to its leaf, vectorized per level."""
        array = np.asarray(array, dtype=float)
        stack = [(node or self.root, array)]
        while stack:
            current, rows = stack.pop()
            if len(rows) == 0:
                continue
            split_dim, split_value = current.split_dim, current.split_value
            if split_dim is None or split_value is None:
                deliver(current, rows)
                continue
            mask = rows[:, split_dim] < split_value
            stack.append((current.child(0), rows[mask]))
            stack.append((current.child(1), rows[~mask]))
