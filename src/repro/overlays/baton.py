"""The BATON overlay: a balanced tree over a one-dimensional key space.

BATON [10] organizes peers as the nodes (not just leaves) of a balanced
binary tree.  Every node owns a contiguous range of the key space; ranges
follow the in-order traversal.  Besides parent/child and adjacent
(in-order neighbor) links, each node keeps left and right *routing tables*
pointing to same-level nodes at exponentially growing offsets, giving
O(log n) lookups.

The simulator builds the tree directly at a requested size with
data-quantile ranges (the steady state BATON's load balancing converges
to) — the experiments measure query cost on static snapshots of different
sizes, as the paper does for its SSP competitor.  Keys are Morton codes
(:class:`~repro.overlays.zcurve.ZCurve`) of the tuples, which is how SSP
maps multi-dimensional data onto BATON.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..common.geometry import Rect
from ..common.store import LocalStore
from .zcurve import ZCurve

__all__ = ["BatonPeer", "BatonOverlay"]


class BatonPeer:
    """One BATON node: a key range plus tree and routing-table links."""

    __slots__ = ("peer_id", "level", "offset", "range_lo", "range_hi",
                 "span_lo", "span_hi", "parent", "left", "right",
                 "adjacent_prev", "adjacent_next", "left_table",
                 "right_table", "store", "cached_cells")

    def __init__(self, peer_id: int, level: int, offset: int,
                 dims: int) -> None:
        self.peer_id = peer_id
        self.level = level
        self.offset = offset
        self.range_lo = 0
        self.range_hi = 0
        self.span_lo = 0
        self.span_hi = 0
        self.parent: BatonPeer | None = None
        self.left: BatonPeer | None = None
        self.right: BatonPeer | None = None
        self.adjacent_prev: BatonPeer | None = None
        self.adjacent_next: BatonPeer | None = None
        self.left_table: list[BatonPeer] = []
        self.right_table: list[BatonPeer] = []
        #: Always a live store (empty until the overlay loads data) — a
        #: half-constructed peer with no store was a latent crash site.
        self.store: LocalStore = LocalStore(dims)
        #: Set lazily by SSP: z-cells covering the peer's key range.
        self.cached_cells: list[Rect] | None = None

    def contains(self, key: int) -> bool:
        return self.range_lo <= key < self.range_hi

    def span_contains(self, key: int) -> bool:
        return self.span_lo <= key < self.span_hi

    def __repr__(self) -> str:
        return (f"BatonPeer(id={self.peer_id}, level={self.level}, "
                f"range=[{self.range_lo}, {self.range_hi}))")


class BatonOverlay:
    """An omniscient simulation of a BATON network keyed by a Z-curve."""

    def __init__(self, size: int, data: np.ndarray, *, zcurve: ZCurve,
                 seed: int = 0) -> None:
        if size < 1:
            raise ValueError("size must be positive")
        self.zcurve = zcurve
        self.rng = np.random.default_rng(seed ^ 0xBA70)
        self.dims = zcurve.dims
        self._peers = [BatonPeer(i, _level(i + 1), _offset(i + 1), self.dims)
                       for i in range(size)]
        self._wire_tree(size)
        self._assign_ranges(np.asarray(data, dtype=float))
        self._load(np.asarray(data, dtype=float))

    # -- construction -------------------------------------------------------

    def _wire_tree(self, size: int) -> None:
        peers = self._peers
        for i, peer in enumerate(peers):
            heap = i + 1
            if heap > 1:
                peer.parent = peers[heap // 2 - 1]
            if 2 * heap <= size:
                peer.left = peers[2 * heap - 1]
            if 2 * heap + 1 <= size:
                peer.right = peers[2 * heap]
        # same-level routing tables at offsets +-2^j
        by_level: dict[int, dict[int, BatonPeer]] = {}
        for peer in peers:
            by_level.setdefault(peer.level, {})[peer.offset] = peer
        for peer in peers:
            row = by_level[peer.level]
            j = 0
            while True:
                delta = 1 << j
                left = row.get(peer.offset - delta)
                right = row.get(peer.offset + delta)
                if left is None and right is None and delta > len(row):
                    break
                if left is not None:
                    peer.left_table.append(left)
                if right is not None:
                    peer.right_table.append(right)
                j += 1

    def _in_order(self) -> list[BatonPeer]:
        out: list[BatonPeer] = []
        stack: list[tuple[BatonPeer, bool]] = [(self._peers[0], False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                out.append(node)
                continue
            if node.right is not None:
                stack.append((node.right, False))
            stack.append((node, True))
            if node.left is not None:
                stack.append((node.left, False))
        return out

    def _assign_ranges(self, data: np.ndarray) -> None:
        n = len(self._peers)
        top = self.zcurve.max_key + 1
        keys = np.sort(self.zcurve.encode_batch(data)) if len(data) else None
        bounds = [0]
        for i in range(1, n):
            if keys is not None and len(keys) >= n:
                candidate = int(keys[(i * len(keys)) // n])
            else:
                candidate = (i * top) // n
            candidate = max(candidate, bounds[-1] + 1)
            candidate = min(candidate, top - (n - i))
            bounds.append(candidate)
        bounds.append(top)
        order = self._in_order()
        for peer, lo, hi in zip(order, bounds, bounds[1:]):
            peer.range_lo, peer.range_hi = lo, hi
        for prev, nxt in zip(order, order[1:]):
            prev.adjacent_next = nxt
            nxt.adjacent_prev = prev
        self._compute_spans(self._peers[0])

    def _compute_spans(self, root: BatonPeer) -> None:
        stack: list[tuple[BatonPeer, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in (node.left, node.right):
                    if child is not None:
                        stack.append((child, False))
                continue
            node.span_lo = node.left.span_lo if node.left else node.range_lo
            node.span_hi = node.right.span_hi if node.right else node.range_hi

    def _load(self, data: np.ndarray) -> None:
        for peer in self._peers:
            peer.store = LocalStore(self.dims)
        if len(data) == 0:
            return
        keys = self.zcurve.encode_batch(data)
        order = self._in_order()
        bounds = [p.range_lo for p in order] + [order[-1].range_hi]
        slot = np.searchsorted(bounds, keys, side="right") - 1
        for i, peer in enumerate(order):
            peer.store.bulk_load(data[slot == i])

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._peers)

    def peers(self) -> Sequence[BatonPeer]:
        return self._peers

    def iter_peers(self) -> Iterator[BatonPeer]:
        return iter(self._peers)

    def random_peer(self, rng: np.random.Generator | None = None) -> BatonPeer:
        rng = rng or self.rng
        return self._peers[int(rng.integers(len(self._peers)))]

    def total_tuples(self) -> int:
        return sum(len(p.store) for p in self._peers)

    # -- routing ---------------------------------------------------------------

    def route(self, start: BatonPeer, key: int) -> tuple[BatonPeer, int]:
        """BATON lookup: returns the responsible peer and the hop count."""
        key = min(max(key, 0), self.zcurve.max_key)
        node = start
        hops = 0
        while not node.contains(key):
            node = self._next_hop(node, key)
            hops += 1
            if hops > 4 * len(self._peers):
                raise RuntimeError(f"BATON routing diverged toward {key}")
        return node, hops

    def _next_hop(self, node: BatonPeer, key: int) -> BatonPeer:
        if node.span_contains(key):
            for child in (node.left, node.right):
                if child is not None and child.span_contains(key):
                    return child
            raise AssertionError("span invariant violated")
        table = node.left_table if key < node.span_lo else node.right_table
        best = None
        for entry in table:
            if entry.span_contains(key):
                return entry
            if key < node.span_lo and entry.span_lo > key:
                best = entry  # farthest non-overshooting left jump
            elif key >= node.span_hi and entry.span_hi <= key + 1:
                best = entry
        if best is not None:
            return best
        assert node.parent is not None, "root spans the whole key space"
        return node.parent


def _level(heap_index: int) -> int:
    return heap_index.bit_length() - 1


def _offset(heap_index: int) -> int:
    return heap_index - (1 << _level(heap_index))
