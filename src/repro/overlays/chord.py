"""The Chord overlay: a ring DHT with finger tables [15].

Peers sit on the unit ring ``[0, 1)``; a peer owns the arc from its id up
to its successor's id.  Fingers point at the successors of
``id + 2^-i``; Section 3.1 assigns the ``i``-th distinct finger the arc
stretching from the beginning of that finger's zone to the beginning of
the next finger's zone (and back to the peer's own id for the last one),
so the finger regions partition the ring outside the peer's own zone —
exactly what RIPPLE requires.  The ring itself (sorted keys, arc hand-off
on join/leave, ``load``, the clockwise arc builder) is the ring substrate
(:class:`~repro.overlays.substrate.RingOverlay`, shared with the skip
graph); Chord adds the finger rule and successor-list replicas.

Chord is hash-organized and one-dimensional, so the genericity
demonstration runs rank queries over 1-d datasets (the key *is* the
value).  This is the paper's point in Section 3.1: RIPPLE works on any
DHT; the multidimensional guarantees come from MIDAS.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.hashing import mix
from ..core.framework import Link
from .substrate import RingOverlay, RingPeer

__all__ = ["ChordPeer", "ChordOverlay"]


class ChordPeer(RingPeer):
    """A Chord peer: a ring id, the arc up to its successor, fingers."""

    __slots__ = ()
    overlay: "ChordOverlay"

    @property
    def ring_id(self) -> float:
        return self.key

    def _build_links(self) -> list[Link]:
        return self.overlay.finger_links(self)

    def __repr__(self) -> str:
        return f"ChordPeer(id={self.peer_id}, ring={self.key:.4f})"


class ChordOverlay(RingOverlay[ChordPeer]):
    """An omniscient simulation of a Chord ring."""

    peer_class = ChordPeer

    def __init__(self, *, size: int = 1, seed: int = 0) -> None:
        super().__init__(size=size, seed=seed,
                         rng=np.random.default_rng(mix(seed, 0xC0D)))

    # -- replication -----------------------------------------------------------------

    def replica_targets(self, peer: ChordPeer, count: int) -> list[ChordPeer]:
        """Successor-list replication: the next ``count`` peers clockwise.

        The classic Chord discipline — a peer's data is mirrored on its
        successor list, so when it fails the immediate successor (which
        takes over the arc by ring stitching) already holds the tuples.
        """
        index, ring = self._rank(peer), len(self._peers)
        return [self._peers[(index + step) % ring]
                for step in range(1, min(count, ring - 1) + 1)]

    # -- fingers --------------------------------------------------------------------

    def finger_resolution(self) -> int:
        return max(1, math.ceil(math.log2(max(2, len(self._peers)))) + 2)

    def finger_links(self, peer: ChordPeer) -> list[Link]:
        """Distinct fingers plus their ring-arc regions (Section 3.1)."""
        # Chord peers always hold an explicit successor pointer; the
        # remaining fingers are the successors of id + 2^-i.
        targets = [self.owner(peer.zone.end)]
        for i in range(self.finger_resolution(), 0, -1):
            point = (peer.key + 2.0 ** -i) % 1.0
            finger = self.owner(point)
            # Chord fingers are the successors *at or after* the target
            # point; owner() returns the arc owner, whose successor is the
            # textbook finger when the target is mid-arc.
            if finger.key != point:
                finger = self.owner(finger.zone.end)
            targets.append(finger)
        return self._arc_links(peer, targets)
