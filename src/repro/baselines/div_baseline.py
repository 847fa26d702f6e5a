"""The diversification baseline: incremental diversification over CAN.

Section 7.1: "we adapt the algorithm of [12] (Minack et al., incremental
diversification for very large sets: a streaming-based approach), termed
baseline, for a distributed setting based on CAN".  Each greedy step
streams the entire collection through the incremental diversifier; in the
distributed adaptation every CAN peer streams its local tuples (computing
its best marginal candidate) and the querying peer merges the per-peer
candidates.  Reaching every peer means flooding the CAN neighbor graph,
which is where the baseline's cost lives: congestion ~ network size per
greedy step.

The paper "forces both heuristic diversification algorithms to produce
the same result at each step", so this engine plugs into the very same
greedy driver (:func:`repro.queries.diversify.greedy_diversify`) as the
RIPPLE engine and differs only in how a single tuple diversification
query is processed.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

from ..common.geometry import Point
from ..core.framework import PeerLike
from ..net.context import QueryStats
from ..overlays.can import CanOverlay, CanPeer
from ..queries.diversify import DiversificationObjective, check_members

__all__ = ["FloodingDiversifier", "flood"]


def flood(initiator: PeerLike) -> tuple[list[tuple[PeerLike, int]], int]:
    """BFS over the link graph with duplicate suppression, as a real
    broadcast would: ``(peer, depth)`` pairs plus the message count."""
    seen = {initiator.peer_id}
    order = [(initiator, 0)]
    queue = deque(order)
    messages = 0
    while queue:
        peer, depth = queue.popleft()
        for link in peer.links():
            messages += 1
            if link.peer.peer_id in seen:
                continue
            seen.add(link.peer.peer_id)
            entry = (link.peer, depth + 1)
            order.append(entry)
            queue.append(entry)
    return order, messages


class FloodingDiversifier:
    """CAN-flooding engine for single tuple diversification queries."""

    def __init__(self, overlay: CanOverlay, initiator: CanPeer):
        self.overlay = overlay
        self.initiator = initiator

    def solve_single(self, objective: DiversificationObjective,
                     members: Sequence[Point], *, tau: float = math.inf,
                     exclude: Sequence[Point] = (), grow: bool = False
                     ) -> tuple[tuple[float, Point] | None, QueryStats]:
        check_members(members, grow)
        reached, forward_messages = flood(self.initiator)
        best: tuple[float, Point] | None = None
        depth_max = 0
        for peer, depth in reached:
            depth_max = max(depth_max, depth)
            candidate = objective.best_local(
                peer.store, members, exclude or members, grow)
            if candidate is None:
                continue
            # Every peer holding any candidate reports its local best:
            # the baseline cannot prune with a threshold it discovers late.
            if best is None or (objective.candidate_key(*candidate)
                                < objective.candidate_key(*best)):
                best = candidate
        if best is not None and best[0] >= tau:
            best = None
        # The gather is a convergecast up the flood tree: each peer sends
        # one aggregate to its flood parent, and the initiator can only
        # start the next greedy step after the whole round trip.
        stats = QueryStats(
            latency=2 * depth_max,
            processed=len(reached),
            forward_messages=forward_messages,
            response_messages=max(0, len(reached) - 1),
            answer_messages=0,
            tuples_shipped=max(0, len(reached) - 1),
        )
        return best, stats
