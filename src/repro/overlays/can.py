"""The CAN overlay: a d-dimensional content-addressable network [13].

Peers own axis-aligned zones produced by CAN's join protocol (the hosting
zone splits in half, cycling through dimensions); two peers are neighbors
when their zones share a (d-1)-dimensional face.  Under uniform joins the
zones form exactly the structure of a cyclic midpoint split tree, so the
registry, join/leave hand-off and ``load`` are the split-tree substrate's
(:class:`~repro.overlays.substrate.SplitTreeOverlay`, shared with MIDAS) —
the omniscient simulator view; peers themselves only see their neighbor
lists, and CAN adds only those: adjacencies, frustum regions and
zone-neighbor replica placement.

For RIPPLE-over-CAN (the Section 3.1 genericity argument) each neighbor is
assigned a pyramidal-frustum region: its top is the shared face with the
neighbor, its base the matching slice of the domain boundary face, so the
regions of all neighbors tile the domain outside the peer's zone.  A
neighbor's *zone* is not always contained in its frustum (zones can be
wider than the shared face), so frustum covers are approximate and RIPPLE
runs in non-strict (dedup) mode over CAN — see DESIGN.md.

DSL and the distributed diversification baseline (:mod:`repro.baselines`)
use the plain neighbor graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.geometry import Frustum, Point, Rect
from ..core.framework import Link
from ..core.regions import FrustumRegion
from .kdtree import Node
from .substrate import JoinPolicy, SplitTreeOverlay, TreePeer

__all__ = ["CanPeer", "CanOverlay", "Adjacency"]


@dataclass(frozen=True)
class Adjacency:
    """One neighbor relation: the shared face between two zones.

    ``axis`` is the dimension the zones abut along; ``side`` is +1 when
    the neighbor lies above ``peer`` on that axis, -1 below; ``face`` is
    the shared (d-1)-face as a flat :class:`Rect`.
    """

    peer: "CanPeer"
    axis: int
    side: int
    face: Rect


class CanPeer(TreePeer):
    """A CAN peer: one zone plus links to all face-adjacent zones."""

    __slots__ = ("_neighbors",)
    overlay: "CanOverlay"

    def __init__(self, peer_id: int, overlay: "CanOverlay", leaf: Node,
                 anchor: Point) -> None:
        super().__init__(peer_id, overlay, leaf, anchor)
        self._neighbors: tuple[int, list[Adjacency]] | None = None

    def neighbors(self) -> list[Adjacency]:
        """Face-adjacent peers, recomputed lazily after churn."""
        epoch = self.overlay.epoch
        if self._neighbors is not None and self._neighbors[0] == epoch:
            return self._neighbors[1]
        found = self.overlay.adjacencies(self)
        self._neighbors = (epoch, found)
        return found

    def _build_links(self) -> list[Link]:
        """RIPPLE links: one frustum region per neighbor (Section 3.1)."""
        return [Link(peer=adj.peer, region=FrustumRegion(self._frustum(adj)))
                for adj in self.neighbors()]

    def _frustum(self, adj: Adjacency) -> Frustum:
        """The frustum between a domain-boundary slice and the shared face.

        The shared face's cross-section, normalized within this zone's
        face, is scaled up to the domain boundary so that the frustums of
        all neighbors tile the pyramid of their side.
        """
        zone = self.zone
        axis = adj.axis
        domain = Rect.unit(zone.dims)
        boundary = domain.lo[axis] if adj.side < 0 else domain.hi[axis]
        face_coord = zone.lo[axis] if adj.side < 0 else zone.hi[axis]
        base_lo, base_hi = [], []
        for dim in range(zone.dims):
            if dim == axis:
                base_lo.append(boundary)
                base_hi.append(boundary)
                continue
            span = zone.hi[dim] - zone.lo[dim]
            lo_frac = (adj.face.lo[dim] - zone.lo[dim]) / span
            hi_frac = (adj.face.hi[dim] - zone.lo[dim]) / span
            extent = domain.hi[dim] - domain.lo[dim]
            base_lo.append(domain.lo[dim] + lo_frac * extent)
            base_hi.append(domain.lo[dim] + hi_frac * extent)
        base = Rect(tuple(base_lo), tuple(base_hi))
        top_lo = tuple(face_coord if d == axis else adj.face.lo[d]
                       for d in range(zone.dims))
        top_hi = tuple(face_coord if d == axis else adj.face.hi[d]
                       for d in range(zone.dims))
        return Frustum(axis=axis, base=base, top=Rect(top_lo, top_hi))

    def __repr__(self) -> str:
        return f"CanPeer(id={self.peer_id}, zone={self.zone.lo}-{self.zone.hi})"


class CanOverlay(SplitTreeOverlay[CanPeer]):
    """An omniscient simulation of a CAN network.

    CAN's join (land on a random key, split the hosting zone in half) and
    departure (a mergeable neighbor takes the zone over) are the
    split-tree substrate's defaults.
    """

    peer_class = CanPeer

    def __init__(self, dims: int, *, size: int = 1, seed: int = 0,
                 join_policy: JoinPolicy = "uniform") -> None:
        super().__init__(dims, size=size, seed=seed, join_policy=join_policy,
                         rng=np.random.default_rng(seed ^ 0xCA17))

    # -- replication --------------------------------------------------------

    def replica_targets(self, peer: CanPeer, count: int) -> list[CanPeer]:
        """Zone-neighbor replication: copies on face-adjacent peers.

        CAN's takeover protocol hands a failed zone to one of its
        neighbors, so mirroring onto the (deterministically ordered)
        neighbor list puts the data exactly where the takeover happens.
        Zones with fewer neighbors than ``count`` widen one ring out to
        neighbors-of-neighbors.
        """
        if count <= 0:
            return []
        ring = sorted({adj.peer.peer_id: adj.peer
                       for adj in peer.neighbors()}.values(),
                      key=lambda p: p.peer_id)
        chosen = ring[:count]
        if len(chosen) < count:
            seen = {peer.peer_id, *(p.peer_id for p in chosen)}
            for neighbor in ring:
                for adj in neighbor.neighbors():
                    second = adj.peer
                    if second.peer_id in seen:
                        continue
                    seen.add(second.peer_id)
                    chosen.append(second)
                    if len(chosen) == count:
                        return chosen
        return chosen

    # -- adjacency ----------------------------------------------------------

    def adjacencies(self, peer: CanPeer) -> list[Adjacency]:
        """All face-sharing neighbors of ``peer``, via a tree search."""
        zone = peer.zone
        found: list[Adjacency] = []
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(zone):
                continue
            if not node.is_leaf:
                stack.append(node.child(0))
                stack.append(node.child(1))
                continue
            if node is peer.leaf:
                continue
            adjacency = _shared_face(zone, node.rect)
            if adjacency is not None:
                axis, side, face = adjacency
                found.append(Adjacency(node.payload, axis, side, face))
        return found


def _shared_face(zone: Rect, other: Rect) -> tuple[int, int, Rect] | None:
    """The (axis, side, face) along which two closed boxes share a
    (d-1)-dimensional face, or None."""
    axis = side = None
    for dim in range(zone.dims):
        if zone.hi[dim] == other.lo[dim]:
            candidate = (dim, +1)
        elif other.hi[dim] == zone.lo[dim]:
            candidate = (dim, -1)
        else:
            continue
        if axis is not None:
            return None  # abutting along two axes: corner contact only
        axis, side = candidate
    if axis is None:
        return None
    lo, hi = [], []
    for dim in range(zone.dims):
        if dim == axis:
            coord = zone.hi[dim] if side > 0 else zone.lo[dim]
            lo.append(coord)
            hi.append(coord)
            continue
        low = max(zone.lo[dim], other.lo[dim])
        high = min(zone.hi[dim], other.hi[dim])
        if low >= high:
            return None  # degenerate overlap: corner/edge contact only
        lo.append(low)
        hi.append(high)
    return axis, side, Rect(tuple(lo), tuple(hi))
