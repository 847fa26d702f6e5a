"""The two churn-capable substrates: a k-d split tree and a key ring.

RIPPLE needs one thing from an overlay (Section 3.1): every peer
partitions the domain among its links.  The four churn-capable overlays
come in two geometries, and each geometry is stated once here — the
overlays themselves are *link disciplines* over it:

* :class:`SplitTreeOverlay` — peers are the leaves of a
  :class:`~repro.overlays.kdtree.SplitTree`.  A join lands on a uniform
  or data-drawn key and splits the hosting leaf, handing the new zone's
  tuples over; a departure merges with a sibling leaf or promotes a peer
  out of a deepest leaf pair of the sibling subtree.
  :class:`~repro.overlays.midas.MidasOverlay` adds one link per sibling
  subtree, :class:`~repro.overlays.can.CanOverlay` one frustum per
  face-adjacent zone.
* :class:`RingOverlay` — peers sorted by key on the unit ring, each
  owning the arc up to its successor.  A join splits the hosting arc, a
  departure hands the arc to the predecessor, and any target set that
  includes the successor becomes a link table by ordering it clockwise
  and stretching each target's arc to the next target
  (:meth:`RingOverlay._arc_links`).
  :class:`~repro.overlays.chord.ChordOverlay` picks fingers,
  :class:`~repro.overlays.skipgraph.SkipGraphOverlay` rainbow towers.

Both share :class:`Substrate` (peer registry, the ``epoch`` counter every
cache keys on, ``load`` validation) and :class:`SubstratePeer` (the
replication/fault slots and the epoch-memoised ``links()``).  The
replication contract — ``replica_targets(peer, count)`` on the overlay,
``replicas``/``alive`` on the peer — is abstract here, so an overlay that
omits it cannot be instantiated.
"""

from __future__ import annotations

import bisect
import itertools
from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, Iterator, Literal, Sequence, TypeVar

import numpy as np

from ..common.geometry import Interval, Point, Rect
from ..common.store import LocalStore, Replica
from ..core.framework import Link, LinkTable
from ..core.regions import ArcRegion, RectRegion, domain_region
from .kdtree import Node, SplitTree

__all__ = ["JoinPolicy", "RingOverlay", "RingPeer", "SplitTreeOverlay",
           "Substrate", "SubstratePeer", "TreePeer"]

JoinPolicy = Literal["uniform", "data"]


class SubstratePeer(ABC):
    """What every peer carries besides its geometry."""

    __slots__ = ("peer_id", "overlay", "store", "alive", "replicas", "_links")

    def __init__(self, peer_id: int, overlay: Any) -> None:
        self.peer_id = peer_id
        self.overlay = overlay
        self.store = LocalStore(overlay.dims)
        #: Liveness flag for fault scenarios; FaultPlan.from_overlay freezes
        #: these into a crash schedule.  Fault-free engines ignore it.
        self.alive = True
        #: Replicas of other peers' stores hosted here, keyed by owner id;
        #: maintained by :class:`~repro.overlays.replication.ReplicaDirectory`.
        self.replicas: dict[int, Replica] = {}
        self._links: tuple[int, LinkTable] | None = None

    def links(self) -> LinkTable:
        """The link table of the current epoch, memoised.

        Always equal to ``LinkTable(self._build_links())``.  Once churn
        has moved the epoch the memoised table goes through
        :meth:`_refresh_links`, which by default rebuilds it; an overlay
        whose churn is local hands the same object back while none of
        its links changed.
        """
        epoch = self.overlay.epoch
        if self._links is not None and self._links[0] == epoch:
            return self._links[1]
        links = self._refresh_links(
            None if self._links is None else self._links[1])
        self._links = (epoch, links)
        return links

    def _refresh_links(self, stale: LinkTable | None) -> LinkTable:
        """The table of the current epoch, given the one memoised at an
        earlier epoch (``None`` on first touch)."""
        return LinkTable(self._build_links())

    @abstractmethod
    def _build_links(self) -> list[Link]:
        """This overlay's link discipline for the current epoch, derived
        from nothing but the overlay's present structure."""


_P = TypeVar("_P", bound=SubstratePeer)


class Substrate(ABC, Generic[_P]):
    """Peer registry, epoch and data validation of both families."""

    def __init__(self, dims: int, seed: int,
                 rng: np.random.Generator) -> None:
        self.dims = dims
        self.seed = seed
        self.rng = rng
        #: Moved by every join and departure.  Peers memoise their link
        #: tables on it; ReplicaDirectory and CacheDirectory re-sync
        #: their registries when it changes.
        self.epoch = 0
        self._peers: list[_P] = []
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._peers)

    def peers(self) -> Sequence[_P]:
        return self._peers

    def iter_peers(self) -> Iterator[_P]:
        return iter(self._peers)

    def random_peer(self, rng: np.random.Generator | None = None) -> _P:
        rng = rng or self.rng
        return self._peers[int(rng.integers(len(self._peers)))]

    def domain(self) -> RectRegion:
        return domain_region(self.dims)

    def total_tuples(self) -> int:
        return sum(len(peer.store) for peer in self._peers)

    @abstractmethod
    def join(self) -> _P:
        """A new physical peer joins; returns it."""

    def grow_to(self, size: int) -> None:
        while len(self._peers) < size:
            self.join()

    def _checked_rows(self, array: np.ndarray) -> np.ndarray:
        """``array`` as float rows, each a point of ``domain()``.

        The API boundary of ``load``: a tuple outside ``[0, 1)^d`` would
        be stored under a zone that does not contain it, where region
        pruning can never be trusted to reach it.
        """
        rows = np.asarray(array, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dims:
            raise ValueError(f"load() expects an (m, {self.dims}) array, "
                             f"got shape {rows.shape}")
        outside = ~((rows >= 0.0) & (rows < 1.0)).all(axis=1)
        if outside.any():
            row = int(outside.argmax())
            raise ValueError(
                f"load() row {row} = {rows[row].tolist()} is not a finite "
                f"point of the domain [0, 1)^{self.dims}")
        return rows


# -- split-tree family ------------------------------------------------------

class TreePeer(SubstratePeer):
    """A peer owning one leaf of the split tree."""

    __slots__ = ("leaf", "anchor")

    def __init__(self, peer_id: int, overlay: "SplitTreeOverlay[Any]",
                 leaf: Node, anchor: Point) -> None:
        super().__init__(peer_id, overlay)
        self.leaf = leaf
        self.anchor = anchor

    @property
    def zone(self) -> Rect:
        return self.leaf.rect


_TP = TypeVar("_TP", bound=TreePeer)


class SplitTreeOverlay(Substrate[_TP]):
    """An omniscient simulation of a network shaped as a k-d split tree."""

    #: The concrete peer type ``_new_peer`` instantiates.
    peer_class: type[_TP]

    def __init__(self, dims: int, *, size: int, seed: int,
                 join_policy: JoinPolicy, rng: np.random.Generator) -> None:
        super().__init__(dims, seed, rng)
        self.join_policy: JoinPolicy = join_policy
        self.tree = SplitTree(dims)
        self._data_pool: list[np.ndarray] = []
        self._pool_sizes: list[int] = []
        self._new_peer(self.tree.root)
        self.grow_to(size)

    def _new_peer(self, leaf: Node) -> _TP:
        peer = self.peer_class(next(self._ids), self, leaf,
                               leaf.rect.sample(self.rng))
        leaf.payload = peer
        self._peers.append(peer)
        return peer

    def locate(self, point: Sequence[float]) -> _TP:
        return self.tree.locate(point).payload

    # -- churn ------------------------------------------------------------

    def join(self) -> _TP:
        """A new peer lands on a key and splits the hosting zone.

        Under the ``"uniform"`` policy the key is uniformly random.
        Under ``"data"`` it is the key of a random stored tuple, so peer
        density tracks data density — the effect of MIDAS' load-driven
        splitting, and the balanced setting the paper's experiments
        presume.
        """
        point = self._join_point()
        return self._split_host(self.tree.locate(point), point)

    def _join_point(self) -> Point:
        if self.join_policy == "data" and self._pool_sizes:
            total = self._pool_sizes[-1]
            pick = int(self.rng.integers(total))
            for block, cumulative in zip(self._data_pool, self._pool_sizes):
                if pick < cumulative:
                    row = block[pick - (cumulative - len(block))]
                    return tuple(row.tolist())
        return tuple(self.rng.random(self.dims).tolist())

    def _split_host(self, host_leaf: Node, point: Point) -> _TP:
        host: _TP = host_leaf.payload
        dim = host_leaf.depth % self.dims
        value = self._split_value(host_leaf, dim)
        left, right = self.tree.split_leaf(host_leaf, dim, value)
        host_child = left if host.anchor[dim] < value else right
        new_child = right if host_child is left else left
        host.leaf = host_child
        host_child.payload = host
        anchor = self._joiner_anchor(new_child.rect, point)
        joiner = self._new_peer(new_child)
        if anchor is not None:
            joiner.anchor = anchor
        # The host's tuples are all inside the zone being halved.
        joiner.store.bulk_load(host.store.extract(new_child.rect, dim))
        self.epoch += 1
        return joiner

    def _split_value(self, leaf: Node, dim: int) -> float:
        """Where ``leaf`` splits along ``dim``: the midpoint."""
        return (leaf.rect.lo[dim] + leaf.rect.hi[dim]) / 2.0

    def _joiner_anchor(self, zone: Rect, point: Point) -> Point | None:
        """The joiner's anchor, or ``None`` for ``_new_peer``'s own draw.

        Called before ``_new_peer`` so an overlay that samples here keeps
        its position in the seeded ``rng`` stream.
        """
        return point if zone.contains(point) else None

    def leave(self, peer: _TP | None = None) -> None:
        """A peer departs; a sibling leaf or a promoted peer takes its zone."""
        if len(self._peers) <= 1:
            raise ValueError("cannot remove the last peer")
        peer = peer or self.random_peer()
        leaf = peer.leaf
        parent = leaf.parent
        assert parent is not None
        sibling = parent.child(1 - leaf.path[-1])
        if sibling.is_leaf:
            self._absorb(parent, sibling.payload, peer)
        else:
            # Promote a peer from a deepest leaf pair of the sibling
            # subtree: its twin absorbs its zone, and it adopts the
            # departing peer's zone and tuples.
            pair = self.tree.find_leaf_pair(sibling)
            mover: _TP = pair.child(1).payload
            self._absorb(pair, pair.child(0).payload, mover)
            leaf.payload = mover
            mover.leaf = leaf
            mover.store = peer.store
            mover.anchor = leaf.rect.sample(self.rng)
        self._peers.remove(peer)
        self.epoch += 1

    def _absorb(self, parent: Node, survivor: _TP, leaver: _TP) -> None:
        """Merge ``parent``'s two leaves into ``survivor``'s zone."""
        survivor.store.bulk_load(leaver.store.take_all())
        merged = self.tree.merge_children(parent)
        merged.payload = survivor
        survivor.leaf = merged

    def shrink_to(self, size: int) -> None:
        if size < 1:
            raise ValueError("network size must stay positive")
        while len(self._peers) > size:
            self.leave()

    # -- data -------------------------------------------------------------

    def load(self, array: np.ndarray) -> None:
        """Distribute a dataset to the peers owning each tuple's key."""
        rows = self._checked_rows(array)
        self.tree.partition(
            rows, lambda leaf, block: leaf.payload.store.bulk_load(block))
        self._data_pool.append(rows)
        previous = self._pool_sizes[-1] if self._pool_sizes else 0
        self._pool_sizes.append(previous + len(rows))

    @abstractmethod
    def replica_targets(self, peer: _TP, count: int) -> list[_TP]:
        """Where ``ReplicaDirectory`` mirrors ``peer``'s store."""


# -- ring family --------------------------------------------------------------

class RingPeer(SubstratePeer):
    """A peer owning the arc from its key up to its successor's key."""

    __slots__ = ("key",)

    def __init__(self, peer_id: int, overlay: "RingOverlay[Any]",
                 key: float) -> None:
        super().__init__(peer_id, overlay)
        self.key = key

    @property
    def zone(self) -> Interval:
        return Interval(self.key, self.overlay.successor_key(self.key))


_RP = TypeVar("_RP", bound=RingPeer)


class RingOverlay(Substrate[_RP]):
    """An omniscient simulation of peers sorted by key on the unit ring."""

    #: The concrete peer type ``join`` instantiates.
    peer_class: type[_RP]

    def __init__(self, *, size: int, seed: int,
                 rng: np.random.Generator) -> None:
        super().__init__(1, seed, rng)
        #: Peer keys in ring order; ``_peers`` is kept parallel to it.
        self._keys: list[float] = []
        self.grow_to(max(1, size))

    # -- key space ----------------------------------------------------------

    def successor_key(self, key: float) -> float:
        """The key of the next peer clockwise (itself if alone)."""
        return self._keys[bisect.bisect_right(self._keys, key)
                          % len(self._keys)]

    def owner(self, key: float) -> _RP:
        """The peer whose arc contains ``key``."""
        return self._peers[bisect.bisect_right(self._keys, key % 1.0) - 1]

    def _rank(self, peer: _RP) -> int:
        """``peer``'s position in ring order."""
        index = bisect.bisect_left(self._keys, peer.key)
        if index == len(self._peers) or self._peers[index] is not peer:
            raise ValueError(f"{peer!r} is not on this ring")
        return index

    # -- churn ------------------------------------------------------------

    def join(self) -> _RP:
        """A new peer draws a fresh key and takes over the tail of the
        hosting arc."""
        key = float(self.rng.random())
        while key in self._keys:
            key = float(self.rng.random())
        peer = self.peer_class(next(self._ids), self, key)
        index = bisect.bisect_right(self._keys, key)
        predecessor = self._peers[index - 1] if self._peers else None
        self._keys.insert(index, key)
        self._peers.insert(index, peer)
        self.epoch += 1
        if predecessor is not None:
            zone = peer.zone
            points = list(predecessor.store.iter_points())
            moved = [p for p in points if zone.contains(p[0])]
            if moved:
                predecessor.store = LocalStore(
                    1, [p for p in points if not zone.contains(p[0])])
                peer.store = LocalStore(1, moved)
        return peer

    def leave(self, peer: _RP | None = None) -> None:
        """A peer departs; its predecessor's arc absorbs its arc."""
        if len(self._peers) <= 1:
            raise ValueError("cannot remove the last peer")
        index = self._rank(peer or self.random_peer())
        leaver = self._peers.pop(index)
        del self._keys[index]
        self._peers[index - 1].store.bulk_load(leaver.store.take_all())
        self.epoch += 1

    # -- data -------------------------------------------------------------

    def load(self, array: np.ndarray) -> None:
        """Distribute 1-d tuples: the key of a tuple is its value."""
        rows = np.asarray(array, dtype=float)
        if rows.ndim == 1:
            rows = rows[:, None]
        rows = self._checked_rows(rows)
        # ``owner`` of every row at once; rank -1 (a key below the
        # smallest peer key) wraps to the last peer *before* the stable
        # sort, so each peer's block keeps arrival order.
        ranks = (np.searchsorted(self._keys, rows[:, 0] % 1.0, side="right")
                 - 1) % len(self._peers)
        order = np.argsort(ranks, kind="stable")
        cuts = np.searchsorted(ranks[order], np.arange(len(self._peers) + 1))
        for peer, start, stop in zip(self._peers, cuts[:-1].tolist(),
                                     cuts[1:].tolist()):
            if start < stop:
                peer.store.bulk_load(rows[order[start:stop]])

    # -- links --------------------------------------------------------------

    def _arc_links(self, peer: _RP, targets: Iterable[_RP]) -> list[Link]:
        """Link regions for a target set that includes the successor.

        The Section 3.1 construction: order the distinct targets
        clockwise from ``peer``; each target's arc runs from its own key
        to the next target's key, the last one back to ``peer``'s key.
        The successor being a target makes the arcs start at the end of
        ``peer``'s own zone, so they partition the ring outside it.
        """
        distinct = {t.peer_id: t for t in targets if t is not peer}
        ordered = sorted(distinct.values(),
                         key=lambda t: (t.key - peer.key) % 1.0)
        ends = [t.key for t in ordered[1:]] + [peer.key]
        return [Link(peer=t, region=ArcRegion.from_interval(
            Interval(t.key, end))) for t, end in zip(ordered, ends)]

    @abstractmethod
    def replica_targets(self, peer: _RP, count: int) -> list[_RP]:
        """Where ``ReplicaDirectory`` mirrors ``peer``'s store."""
