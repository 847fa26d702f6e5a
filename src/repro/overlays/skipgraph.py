"""A rainbow skip-graph overlay: constant-degree, fault-tolerant substrate.

Skip graphs (Aspnes & Shah) arrange peers in a sorted base list plus a
hierarchy of sparser lists selected by membership-vector prefixes, giving
O(log n) search without a hash-organized keyspace.  The *Rainbow* Skip
Graph (Goodrich, Nelson & Sun, SODA'06) makes the structure both
fault-tolerant and **constant-degree** by grouping Theta(log n)
key-consecutive peers into *towers*: the tower collectively plays the
role of one skip-graph element, and each member carries the pointers of
exactly one level — so no peer's degree grows with the network.  This
module reproduces that shape as RIPPLE's fourth substrate:

* **Towers** — peers sorted by key are grouped into runs of
  ``tower_size ~ log2 n`` consecutive members.  A tower's membership
  vector is derived by seeded hashing from its anchor member, and at
  level ``i`` the tower is linked to the nearest towers (left and right)
  sharing its ``i``-bit membership prefix — the classic skip-graph list
  family, with the tower as the list element.
* **Rainbow link assignment** — member ``j`` of a tower carries the
  tower's level-``j`` left/right pointers (one "color" of the rainbow
  per member) plus an intra-tower ring pointer pair and its base-list
  (global key order) predecessor/successor.  Every peer therefore holds
  at most :data:`SkipGraphOverlay.MAX_DEGREE` ``= 6`` links regardless
  of ``n`` — the headline robustness property, pinned by a degree-bound
  suite in ``tests/overlays/test_skipgraph.py``.
* **Link regions** — RIPPLE needs each peer's links annotated with
  regions that partition the domain outside its own zone.  Keys live on
  the unit ring (the base list is closed into a ring so that zones tile
  the key space exactly as Chord's arcs do), and the Section 3.1 Chord
  construction applies verbatim to *any* target set that includes the
  immediate successor: order the link targets clockwise and stretch each
  target's arc to the beginning of the next target's arc.  The base
  successor link guarantees the partition starts at the peer's own zone
  boundary, so greedy routing always makes clockwise progress and
  Algorithm 3's restriction areas stay exact (strict mode).
* **Replica discipline** — ``replica_targets`` mirrors a peer first onto
  its same-tower neighbors (the members that share its tower's routing
  duties — the rainbow analogue of a hydra component's redundancy) and
  then onto adjacent towers, so the copies sit exactly where the
  structure would re-route around a failure.

The overlay is an omniscient simulation like its MIDAS/Chord/CAN
siblings, and the ring under the towers is the ring substrate it shares
with Chord (:class:`~repro.overlays.substrate.RingOverlay`): joins draw a
uniform key and split the hosting arc, departures hand the arc to the
predecessor, and the epoch counter invalidates the per-peer link caches
and the derived tower index.  The skip graph adds the towers, a one-pass
bulk first build, and tower-first replica placement.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..common.hashing import mix
from ..core.framework import Link
from .substrate import RingOverlay, RingPeer

__all__ = ["SkipGraphOverlay", "SkipGraphPeer"]

_KEY_SALT = 0x5C1B
_VECTOR_SALT = 0x7074


class SkipGraphPeer(RingPeer):
    """A skip-graph peer: one key on the ring, one tower membership."""

    __slots__ = ()
    overlay: "SkipGraphOverlay"

    def _build_links(self) -> list[Link]:
        return self.overlay.peer_links(self)

    def __repr__(self) -> str:
        return f"SkipGraphPeer(id={self.peer_id}, key={self.key:.4f})"


class _TowerIndex:
    """The tower decomposition of one overlay epoch (derived, cached).

    Rebuilt whenever churn moves the epoch: peers in key order are cut
    into runs of ``tower_size`` consecutive members, and the level
    neighborhoods of every tower are resolved by grouping towers on
    their membership-vector prefixes.  All level lists are *lines* (no
    wrap), faithful to the skip-graph structure; only the base peer list
    is a ring, to close the key space.
    """

    __slots__ = ("towers", "position", "neighbors")

    def __init__(self, peers: Sequence[SkipGraphPeer], tower_size: int,
                 seed: int) -> None:
        #: Tower members in key order, towers in key order.
        self.towers: list[list[SkipGraphPeer]] = [
            list(peers[base:base + tower_size])
            for base in range(0, len(peers), tower_size)]
        #: peer id -> (tower index, member index)
        self.position: dict[int, tuple[int, int]] = {}
        for t, members in enumerate(self.towers):
            for j, member in enumerate(members):
                self.position[member.peer_id] = (t, j)
        #: (tower index, level) -> (left tower index | None, right | None)
        self.neighbors: dict[tuple[int, int], tuple[int | None, int | None]]
        self.neighbors = {}
        count = len(self.towers)
        if count <= 1:
            return
        vectors = [
            tuple(mix(seed, _VECTOR_SALT, members[0].peer_id, level) & 1
                  for level in range(tower_size))
            for members in self.towers]
        max_levels = max(len(members) for members in self.towers)
        for level in range(max_levels):
            groups: dict[tuple[int, ...], list[int]] = {}
            for t in range(count):
                groups.setdefault(vectors[t][:level], []).append(t)
            for run in groups.values():
                for slot, t in enumerate(run):
                    left = run[slot - 1] if slot > 0 else None
                    right = run[slot + 1] if slot + 1 < len(run) else None
                    self.neighbors[(t, level)] = (left, right)


class SkipGraphOverlay(RingOverlay[SkipGraphPeer]):
    """An omniscient simulation of a rainbow skip graph.

    The tower size is ``max(1, ceil(log2 n))`` — the Theta(log n) tower
    height of the rainbow construction — and is re-derived after churn,
    so the degree bound never drifts as the network grows or shrinks.
    """

    #: Worst-case out-degree of any peer: base-ring successor and
    #: predecessor, intra-tower ring pair, and one skip level's left and
    #: right pointers.  Independent of the network size by construction.
    MAX_DEGREE = 6

    peer_class = SkipGraphPeer

    def __init__(self, *, size: int = 1, seed: int = 0) -> None:
        self._towers: tuple[int, _TowerIndex] | None = None
        super().__init__(size=size, seed=seed,
                         rng=np.random.default_rng(mix(seed, _KEY_SALT)))

    def grow_to(self, size: int) -> None:
        if not self._peers and size > 1:
            # Bulk first build: draw all keys in one pass (same generator,
            # so a given seed still yields one deterministic network),
            # then register the peers in key order.
            keys: set[float] = set()
            while len(keys) < size:
                keys.add(float(self.rng.random()))
            self._keys = sorted(keys)
            self._peers = [SkipGraphPeer(next(self._ids), self, key)
                           for key in self._keys]
            self.epoch += 1
        super().grow_to(size)

    # -- towers ------------------------------------------------------------

    def tower_size(self) -> int:
        """The current tower height: ``~log2 n``, floor 1."""
        return max(1, math.ceil(math.log2(max(2, len(self._peers)))))

    def tower_index(self) -> _TowerIndex:
        """The epoch-cached tower decomposition (rebuilt after churn)."""
        if self._towers is not None and self._towers[0] == self.epoch:
            return self._towers[1]
        index = _TowerIndex(self._peers, self.tower_size(), self.seed)
        self._towers = (self.epoch, index)
        return index

    def max_links(self) -> int:
        """The realized Delta — never exceeds :data:`MAX_DEGREE`."""
        return max(len(peer.links()) for peer in self._peers)

    # -- replication -------------------------------------------------------

    def replica_targets(self, peer: SkipGraphPeer, count: int
                        ) -> list[SkipGraphPeer]:
        """Same-tower members first, then adjacent towers.

        The rainbow discipline: a tower's members jointly carry its
        routing state, so mirroring a member onto its tower-mates puts
        the copies on exactly the peers that take over its duties when
        it fails; further copies land on the neighboring towers — the
        peers the base list stitches to the lost arc.  Candidates
        alternate outward (next member, previous member, next-but-one,
        ...; then right tower, left tower, ...) so ``R = 1`` stays
        within the tower and higher degrees spread across structure.
        """
        if count <= 0 or len(self._peers) <= 1:
            return []
        index = self.tower_index()
        t, j = index.position[peer.peer_id]
        chosen: list[SkipGraphPeer] = []
        seen = {peer.peer_id}

        def take(candidate: SkipGraphPeer) -> bool:
            if candidate.peer_id not in seen:
                seen.add(candidate.peer_id)
                chosen.append(candidate)
            return len(chosen) >= count

        members = index.towers[t]
        for step in range(1, len(members)):
            for direction in (1, -1):
                if take(members[(j + direction * step) % len(members)]):
                    return chosen
        towers = index.towers
        for step in range(1, len(towers)):
            for direction in (1, -1):
                for member in towers[(t + direction * step) % len(towers)]:
                    if take(member):
                        return chosen
        return chosen

    # -- links -------------------------------------------------------------

    def peer_links(self, peer: SkipGraphPeer) -> list[Link]:
        """The rainbow link set with its clockwise ring-arc regions.

        Targets: base-list successor and predecessor (global key order),
        intra-tower ring neighbors, and the left/right towers of the
        level this member carries (level = member index, the rainbow
        assignment; the counterpart member of the neighbor tower is the
        one carrying the same level).  Regions follow the Section 3.1
        Chord construction — targets ordered clockwise, each arc
        stretching to the start of the next — which partitions the ring
        outside the peer's own zone because the successor is always a
        target.
        """
        index = self.tower_index()
        t, j = index.position[peer.peer_id]
        position = self._rank(peer)
        count = len(self._peers)
        targets: list[SkipGraphPeer] = [
            self._peers[(position + 1) % count],     # base successor
            self._peers[(position - 1) % count],     # base predecessor
        ]
        members = index.towers[t]
        targets.append(members[(j + 1) % len(members)])
        targets.append(members[(j - 1) % len(members)])
        for side in index.neighbors.get((t, j), (None, None)):
            if side is not None:
                neighbor = index.towers[side]
                targets.append(neighbor[j % len(neighbor)])
        return self._arc_links(peer, targets)
