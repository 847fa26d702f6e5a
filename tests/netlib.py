"""The shared overlay parametrization matrix for the test suites.

Every suite that sweeps "all substrates" (handler x engine bit-identity,
fault-plan/recovery properties, replica placement, mirror parity, trace
replay) parametrizes over the tables below instead of keeping its own
builder list — so a new overlay joins the entire robustness matrix by
being added here, with no per-test edits.  That is how the skip graph
became the fourth substrate.

Builders are seeded and deterministic: the same ``(kind, seed, peers,
tuples)`` always yields the same network, and :func:`seed_data` exposes
the exact dataset a builder loaded so reference answers can be computed
independently.
"""

import numpy as np

from repro import (CanOverlay, ChordOverlay, LinearScore, MidasOverlay,
                   RangeHandler, Rect, SkipGraphOverlay, SkylineHandler,
                   TopKHandler)
from repro.core.regions import ArcRegion
from repro.queries.diversify import (DiversificationObjective,
                                     SingleDiversificationHandler)

#: Every churn-capable substrate, in matrix-report order.
OVERLAYS = ("midas", "chord", "can", "skipgraph")

#: Data dimensionality per substrate (the ring substrates are 1-d).
DIMS = {"midas": 2, "chord": 1, "can": 2, "skipgraph": 1}

#: Whether the substrate's link regions are exact (strict mode allowed).
STRICT = {"midas": True, "chord": True, "can": False, "skipgraph": True}


def ring_arc(peer):
    """A ring peer's zone as an ``ArcRegion``, which owns the arc
    algebra (membership, length)."""
    return ArcRegion.from_interval(peer.zone)


def seed_data(seed, tuples, dims):
    """The canonical seeded dataset the builders load."""
    return np.random.default_rng(seed).random((tuples, dims)) * 0.999


def midas_network(seed, peers=36, tuples=260):
    overlay = MidasOverlay(2, size=1, seed=seed, join_policy="data")
    overlay.load(seed_data(seed, tuples, 2))
    overlay.grow_to(peers)
    return overlay


def chord_network(seed, peers=32, tuples=260):
    overlay = ChordOverlay(size=peers, seed=seed)
    overlay.load(seed_data(seed, tuples, 1))
    return overlay


def can_network(seed, peers=36, tuples=260):
    overlay = CanOverlay(2, size=1, seed=seed)
    overlay.load(seed_data(seed, tuples, 2))
    overlay.grow_to(peers)
    return overlay


def skipgraph_network(seed, peers=32, tuples=260):
    overlay = SkipGraphOverlay(size=peers, seed=seed)
    overlay.load(seed_data(seed, tuples, 1))
    return overlay


NETWORKS = {"midas": midas_network, "chord": chord_network,
            "can": can_network, "skipgraph": skipgraph_network}

#: kind -> (builder, dims, strict): the engine-equality matrix rows.
ENGINE_CASES = {kind: (NETWORKS[kind], DIMS[kind], STRICT[kind])
                for kind in OVERLAYS}


def build_network(kind, seed, **kwargs):
    return NETWORKS[kind](seed, **kwargs)


def handlers_for(dims, third="range"):
    """The three handler families of the robustness matrix.

    ``third`` selects the family that joins top-k and skyline: the
    fault/engine suites sweep a range scan ("range"), the recovery and
    parity suites a distributed diversification ("diversify").
    """
    handlers = [TopKHandler(LinearScore([1.0] * dims), 4),
                SkylineHandler(dims)]
    if third == "range":
        handlers.append(RangeHandler(Rect((0.1,) * dims, (0.8,) * dims)))
    else:
        objective = DiversificationObjective([0.4] * dims, lam=0.5)
        handlers.append(SingleDiversificationHandler(
            objective, members=[(0.2,) * dims, (0.7,) * dims]))
    return handlers
