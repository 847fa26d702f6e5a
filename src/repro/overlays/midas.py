"""The MIDAS overlay: a DHT shaped as a virtual k-d tree (Section 2.3).

Every peer is a leaf of the split tree and stores the tuples of its zone.
Peer ``w`` keeps one link per depth ``i <= w.depth``, pointing at *some*
peer inside the sibling subtree rooted at depth ``i``; RIPPLE assigns that
whole sibling subtree's rectangle as the link's region, which makes the
regions of ``w``'s links an exact partition of the domain minus ``w``'s
zone — the property the framework's restriction areas rely on.

Which peer inside a sibling subtree becomes the link target is a *policy*:

* ``"random"`` — the original MIDAS choice (any peer of the subtree).
* ``"boundary"`` — the Section 5.2 optimization: prefer a peer whose
  identifier matches a boundary pattern (see
  :mod:`repro.overlays.patterns`), i.e. one whose zone hugs the lower
  domain boundary where skyline tuples live.

Either way the target is where a deterministic descent from the sibling
subtree's root ends: its branch bits depend only on ``(seed, owner id,
node path)``.  Churn is local — a join splits one leaf, a departure merges
one leaf pair — so a memoised table is *revalidated* after churn, not
rebuilt (:meth:`MidasPeer._refresh_links`): a link whose end leaf still
carries the target it had is exactly what a rebuild would produce.

Churn and data hand-off live in the split-tree substrate
(:class:`~repro.overlays.substrate.SplitTreeOverlay`): joins route to a
random key and split the hosting leaf along alternating dimensions;
departures contract the tree, promoting a peer from the sibling subtree
when the sibling is not a leaf — the replacement scheme of the MIDAS
paper.  MIDAS adds the link policy above, the midpoint or data-median
split value, and sibling-subtree replica placement.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Literal

import numpy as np

from ..common.geometry import Point, Rect
from ..common.hashing import mix, mix_step, path_key
from ..core.framework import Link, LinkTable
from ..core.regions import RectRegion
from .kdtree import Node
from .patterns import alive_patterns
from .substrate import JoinPolicy, SplitTreeOverlay, TreePeer

__all__ = ["MidasPeer", "MidasOverlay"]

LinkPolicy = Literal["random", "boundary"]
SplitRule = Literal["midpoint", "median"]


class MidasPeer(TreePeer):
    """A MIDAS peer: one leaf of the virtual k-d tree.

    Beside its memoised link table the peer keeps what the table is valid
    against: its own leaf and the leaf each link's descent ended at.
    """

    __slots__ = ("_link_ends",)
    overlay: "MidasOverlay"
    _link_ends: tuple[Node, list[Node]]

    @property
    def depth(self) -> int:
        return self.leaf.depth

    @property
    def path(self) -> tuple[int, ...]:
        return self.leaf.path

    def id_string(self) -> str:
        return self.leaf.id_string()

    def _build_links(self) -> list[Link]:
        """One link per depth; regions are the sibling subtree rectangles."""
        overlay = self.overlay
        prefix = mix(overlay.seed, self.peer_id)
        return [Link(peer=overlay.link_end(subtree, prefix).payload,
                     region=RectRegion(subtree.rect))
                for subtree in overlay.tree.sibling_subtrees(self.leaf)]

    def _refresh_links(self, stale: LinkTable | None) -> LinkTable:
        """Revalidate ``stale`` against the tree; re-derive what moved.

        While this peer's leaf is the node it was, the nodes above it are
        too (:class:`~repro.overlays.kdtree.Node`), so the sibling
        subtrees, their rectangles and the bounds arrays stand.  Link
        ``i``'s descent ended at leaf ``T`` on target ``t``; it would end
        there again iff ``T.payload is t`` — ``T`` is then a live leaf
        below unchanged internal nodes, and the bits never depended on
        anything else.  Only links failing that compare are re-descended,
        and with none failing ``stale`` itself is the table.
        """
        leaf = self.leaf
        if stale is None or self._link_ends[0] is not leaf:
            table = LinkTable(self._build_links())
            # A live peer's ``leaf`` is the leaf it is the payload of.
            self._link_ends = (leaf, [link.peer.leaf for link in table])
            return table
        ends = self._link_ends[1]
        moved = [i for i, (end, link) in enumerate(zip(ends, stale))
                 if end.payload is not link.peer]
        if not moved:
            return stale
        overlay = self.overlay
        prefix = mix(overlay.seed, self.peer_id)
        subtrees = overlay.tree.sibling_subtrees(leaf)
        ends, targets = list(ends), {}
        for i in moved:
            ends[i] = overlay.link_end(subtrees[i], prefix)
            # A target that split its leaf may be found again below it.
            if ends[i].payload is not stale[i].peer:
                targets[i] = ends[i].payload
        self._link_ends = (leaf, ends)
        return stale.retargeted(targets) if targets else stale

    def __repr__(self) -> str:
        return f"MidasPeer(id={self.peer_id}, path={self.id_string() or 'root'})"


class MidasOverlay(SplitTreeOverlay[MidasPeer]):
    """An omniscient simulation of a MIDAS network."""

    peer_class = MidasPeer

    def __init__(
        self,
        dims: int,
        *,
        size: int = 1,
        seed: int = 0,
        link_policy: LinkPolicy = "random",
        split_rule: SplitRule = "midpoint",
        join_policy: JoinPolicy = "uniform",
    ) -> None:
        self.link_policy: LinkPolicy = link_policy
        self.split_rule: SplitRule = split_rule
        super().__init__(dims, size=size, seed=seed, join_policy=join_policy,
                         rng=np.random.default_rng(mix(seed, 0xD147)))

    def max_links(self) -> int:
        """The paper's Delta: the largest link count of any peer."""
        return max(peer.depth for peer in self._peers)

    # -- split-tree hooks ---------------------------------------------------

    def _split_value(self, leaf: Node, dim: int) -> float:
        """The midpoint, or under ``"median"`` the host's data median."""
        if self.split_rule == "median" and len(leaf.payload.store) >= 2:
            median = float(np.median(leaf.payload.store.array[:, dim]))
            if leaf.rect.lo[dim] < median < leaf.rect.hi[dim]:
                return median
        return super()._split_value(leaf, dim)

    def _joiner_anchor(self, zone: Rect, point: Point) -> Point:
        return point if zone.contains(point) else zone.sample(self.rng)

    # -- replication --------------------------------------------------------

    def replica_targets(self, peer: MidasPeer, count: int) -> list[MidasPeer]:
        """Structural replica buddies: peers of ``peer``'s sibling subtrees.

        Candidates are interleaved across the sibling subtrees nearest
        first, so the first copy lands on the MIDAS merge partner (the
        peer that would absorb ``peer``'s zone on departure — it can take
        the zone over with the data already in hand) and further copies
        land in structurally distinct branches of the virtual tree,
        surviving subtree-local failures.
        """
        if count <= 0:
            return []
        pools = [[leaf.payload for leaf in self.tree.iter_leaves(subtree)]
                 for subtree in reversed(self.tree.sibling_subtrees(peer.leaf))]
        chosen: list[MidasPeer] = []
        seen = {peer.peer_id}
        for tier in zip_longest(*pools):
            for buddy in tier:
                if buddy is None or buddy.peer_id in seen:
                    continue
                seen.add(buddy.peer_id)
                chosen.append(buddy)
                if len(chosen) == count:
                    return chosen
        return chosen

    # -- link targets -------------------------------------------------------

    def link_end(self, subtree: Node, prefix: int) -> Node:
        """The leaf of ``subtree`` whose peer the owner links to.

        ``prefix`` is ``mix(seed, owner id)``: every hash below is
        ``mix(seed, owner id, ...)``, continued from it by
        :func:`~repro.common.hashing.mix_step`.
        """
        if self.link_policy == "boundary":
            alive = alive_patterns(subtree.path, self.dims)
            if alive:
                return self._boundary_descent(subtree, prefix, sorted(alive))
        return self._random_descent(subtree, prefix)

    def _random_descent(self, subtree: Node, prefix: int) -> Node:
        node, key = subtree, path_key(subtree.path)
        while not node.is_leaf:
            bit = mix_step(prefix, key) & 1
            node, key = node.child(bit), key << 1 | bit
        return node

    def _boundary_descent(self, subtree: Node, prefix: int,
                          alive: list[int]) -> Node:
        """Descend to a leaf whose id matches a still-alive boundary pattern.

        Free positions (``i mod D == j``) are chosen pseudo-randomly to
        spread link targets across the boundary; constrained positions
        must take the 0 child, which always exists in a binary tree.
        """
        node, key = subtree, path_key(subtree.path)
        choice = mix_step(mix_step(prefix, key), 0xB0)
        pattern = alive[choice % len(alive)]
        while not node.is_leaf:
            if node.depth % self.dims == pattern:
                bit = mix_step(prefix, key) & 1
            else:
                bit = 0
            node, key = node.child(bit), key << 1 | bit
        return node

    # -- construction helpers ---------------------------------------------

    @classmethod
    def complete(cls, dims: int, depth: int, *, seed: int = 0,
                 link_policy: LinkPolicy = "random") -> "MidasOverlay":
        """A perfectly balanced overlay of ``2**depth`` peers.

        Used by the latency-analysis tests: on a complete tree the
        worst-case formulas of Lemmas 1-3 are attained exactly.
        """
        overlay = cls(dims, seed=seed, link_policy=link_policy)
        for _ in range(depth):
            for leaf in list(overlay.tree.iter_leaves()):
                point = leaf.rect.center
                overlay._split_host(leaf, point)
        return overlay
