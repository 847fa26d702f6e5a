"""DHT overlays: MIDAS, CAN, Chord, skip graph, BATON (+ Z-curve).

The arena substrate (:mod:`repro.overlays.arena`) re-expresses MIDAS,
Chord, and CAN networks as flat structure-of-arrays snapshots for
100k–1M-peer simulation; :mod:`repro.overlays.arena_build` holds the
mirror and at-scale builders.
"""

from .arena import (ArenaPeer, MidasArena, MirrorArena, OverlayArena,
                    wavefront_execute)
from .arena_build import from_overlay, midas_arena
from .baton import BatonOverlay, BatonPeer
from .can import Adjacency, CanOverlay, CanPeer
from .chord import ChordOverlay, ChordPeer
from .kdtree import Node, SplitTree
from .midas import MidasOverlay, MidasPeer
from .patterns import alive_patterns, matches_any_pattern
from .replication import PromotedPeer, ReplicaDirectory
from .skipgraph import SkipGraphOverlay, SkipGraphPeer
from .zcurve import ZCurve

__all__ = [
    "Adjacency", "ArenaPeer", "BatonOverlay", "BatonPeer", "CanOverlay",
    "CanPeer", "ChordOverlay", "ChordPeer", "MidasArena", "MidasOverlay",
    "MidasPeer", "MirrorArena", "Node", "OverlayArena", "PromotedPeer",
    "ReplicaDirectory", "SkipGraphOverlay", "SkipGraphPeer", "SplitTree",
    "ZCurve", "alive_patterns", "from_overlay",
    "matches_any_pattern", "midas_arena", "wavefront_execute",
]
